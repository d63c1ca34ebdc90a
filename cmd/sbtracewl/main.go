// Command sbtracewl inspects and verifies workload traces (the
// internal/tracefmt format that sbsim -record writes and -app
// replay:PATH replays).
//
// Usage:
//
//	sbtracewl inspect run.sbwt            # header + per-section statistics
//	sbtracewl inspect -records run.sbwt   # also dump every record
//	sbtracewl verify run.sbwt             # replay; check the embedded fingerprint
//
// A recording embeds the run's protocol and ResultFingerprint SHA-256;
// verify replays the trace under its recorded protocol and fails (exit 1) if
// the replayed fingerprint diverges from the embedded one — the bit-identity
// contract of DESIGN.md §14.
package main

import (
	"flag"
	"fmt"
	"os"

	"scalablebulk"
	"scalablebulk/internal/tracefmt"
)

func main() {
	os.Exit(run())
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: sbtracewl inspect|verify [flags] trace")
	fmt.Fprintln(os.Stderr, "  sbtracewl inspect [-records] FILE")
	fmt.Fprintln(os.Stderr, "  sbtracewl verify FILE")
	return 2
}

func run() int {
	if len(os.Args) < 2 {
		return usage()
	}
	switch os.Args[1] {
	case "inspect":
		return inspect(os.Args[2:])
	case "verify":
		return verify(os.Args[2:])
	default:
		return usage()
	}
}

func inspect(args []string) int {
	fs := flag.NewFlagSet("sbtracewl inspect", flag.ExitOnError)
	records := fs.Bool("records", false, "also dump every record's accesses")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return usage()
	}
	tr, err := tracefmt.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbtracewl:", err)
		return 1
	}
	h := tr.Header
	fmt.Printf("trace %s (format v%d)\n", fs.Arg(0), tracefmt.Version)
	fmt.Printf("  app/source:      %s/%s\n", h.App, h.Source)
	fmt.Printf("  recorded under:  %s (fingerprint sha256 %s)\n", orDash(h.Protocol), orDash(h.Fingerprint))
	fmt.Printf("  machine:         %d cores, %d chunks/core + %d warm-up, seed %d, %d pages/thread\n",
		h.Threads, h.ChunksPerCore, h.WarmupPerCore, h.Seed, h.PagesPerThread)
	for _, sec := range []struct {
		name string
		recs []tracefmt.Rec
	}{{"warmup", tr.Warmup}, {"chunks", tr.Chunks}} {
		st := tracefmt.SectionStats(sec.recs)
		fmt.Printf("  %-8s %6d records, %8d accesses (%d writes), %d distinct pages\n",
			sec.name, st.Records, st.Accesses, st.Writes, st.Pages)
	}
	if *records {
		for _, sec := range []struct {
			name string
			recs []tracefmt.Rec
		}{{"warmup", tr.Warmup}, {"chunks", tr.Chunks}} {
			for i := range sec.recs {
				r := &sec.recs[i]
				fmt.Printf("%s core=%d seq=%d instr=%d accesses=%d\n",
					sec.name, r.Proc, r.Seq, r.Instr, len(r.Accesses))
				for _, a := range r.Accesses {
					rw := "R"
					if a.Write {
						rw = "W"
					}
					fmt.Printf("  %s line=%d page=%d\n", rw, a.Line, uint64(a.Line)>>7)
				}
			}
		}
	}
	return 0
}

func verify(args []string) int {
	fs := flag.NewFlagSet("sbtracewl verify", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return usage()
	}
	tr, err := tracefmt.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbtracewl:", err)
		return 1
	}
	h := tr.Header
	if h.Protocol == "" || h.Fingerprint == "" {
		fmt.Fprintln(os.Stderr, "sbtracewl: trace has no embedded protocol/fingerprint to verify against")
		return 1
	}
	cfg := scalablebulk.DefaultConfig(h.Threads, h.Protocol)
	prof := scalablebulk.AdoptReplay(&cfg, tr)
	res, err := scalablebulk.Run(prof, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbtracewl:", err)
		return 1
	}
	got := scalablebulk.FingerprintSHA(res)
	if got != h.Fingerprint {
		fmt.Fprintf(os.Stderr, "sbtracewl: FAIL: replayed fingerprint %s != recorded %s\n", got, h.Fingerprint)
		return 1
	}
	fmt.Printf("ok: replay under %s reproduces the recorded fingerprint (%s)\n", h.Protocol, got)
	return 0
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
