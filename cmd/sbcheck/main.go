// Command sbcheck is the model checker front-end: it explores the
// mesh-message interleavings of a small configuration for each selected
// protocol, checking the I1–I5 invariants, committed-write serializability
// and quiescence at every step. On a violation it writes a minimized,
// replayable counterexample schedule; given -schedule it instead replays a
// recorded schedule and verifies it reproduces bit-identically.
//
// Usage:
//
//	sbcheck                                  # explore all protocols at 2×2
//	sbcheck -proto ScalableBulk -cores 3     # one protocol, bigger config
//	sbcheck -proto SEQ -app zipf -chunks 1   # any application model or workload source
//	sbcheck -unordered                       # adversarial: lift per-pair FIFO
//	sbcheck -noreduce                        # cross-check the DPOR reduction
//	sbcheck -schedule ce.json                # replay a recorded schedule
//	sbcheck -protocols                       # list the protocol table
//
// Exit codes: 0 exhausted (or replay reproduced) with no violation; 1
// setup/internal error; 2 clean but bounded (a budget tripped before the
// space was exhausted); 3 violation found (or replay mismatch).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"scalablebulk/internal/cliutil"
	"scalablebulk/internal/explore"
	"scalablebulk/internal/system"
)

type protoReport struct {
	Report *explore.Report `json:"report"`
	WallMS float64         `json:"wall_ms"`
	// Counterexample is the path the minimized schedule was written to.
	Counterexample string `json:"counterexample,omitempty"`
}

type checkReport struct {
	GeneratedBy string         `json:"generated_by"`
	Config      map[string]any `json:"config"`
	Protocols   []protoReport  `json:"protocols"`
}

func main() {
	os.Exit(run())
}

func run() int {
	def := explore.DefaultOptions("")
	var (
		protos    = flag.String("proto", "", "comma-separated protocols to check (default: every registered protocol)")
		protoList = flag.Bool("protocols", false, "list registered commit protocols and exit")
		cores     = flag.Int("cores", def.Cores, "cores in the checked configuration (2–4 is the useful range)")
		chunks    = flag.Int("chunks", def.Chunks, "chunks per core")
		seed      = flag.Int64("seed", def.Seed, "workload seed")
		app       = flag.String("app", def.App, "checking workload: MCConflict | MCFree, or any application model or workload source")
		depth     = flag.Int("depth", def.MaxDepth, "max scheduling choice steps per run (exceeding it reports a livelock)")
		budget    = flag.Int("budget", def.MaxRuns, "max schedules to execute (hitting it makes the result bounded, not exhaustive)")
		states    = flag.Int("states", def.MaxStates, "max visited choice-point digests")
		unordered = flag.Bool("unordered", false, "lift the per-(src,dst) FIFO delivery order (adversarial over-approximation of the torus)")
		skips     = flag.Int("skips", def.MaxSkips, "fairness bound: times one pending message may be passed over (-1: unlimited — expect starvation livelocks)")
		noreduce  = flag.Bool("noreduce", false, "disable partial-order reduction (exhaustive cross-check; much slower)")
		schedule  = flag.String("schedule", "", "replay this recorded schedule file instead of exploring")
		specPath  = flag.String("spec", "", "explore from this spec file (sbsoak writes one per failed point) instead of building a spec from flags")
		saveDir   = flag.String("savedir", ".", "directory for counterexample schedule files ('' disables writing them)")
		outPath   = flag.String("o", "", "write a JSON report to this path (- for stdout)")
	)
	flag.Parse()

	if *protoList {
		fmt.Print(cliutil.ProtocolList())
		return 0
	}
	if *schedule != "" {
		return replay(*schedule)
	}

	var fromSpec *explore.Spec
	if *specPath != "" {
		s, err := explore.LoadSpec(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbcheck:", err)
			return 1
		}
		fromSpec = &s
		// The spec's values stand in for the flags, so the report's config
		// describes what was explored.
		*cores, *chunks, *seed, *app, *skips = s.Cores, s.Chunks, s.Seed, s.App, s.MaxSkips
		*unordered = *unordered || s.Unordered
	}

	names := system.ProtocolNames()
	if fromSpec != nil {
		names = []string{fromSpec.Proto}
	} else if *protos != "" {
		names = strings.Split(*protos, ",")
	}
	for _, n := range names {
		if err := cliutil.CheckProtocol(n); err != nil {
			fmt.Fprintln(os.Stderr, "sbcheck:", err)
			return 1
		}
	}
	rep := checkReport{
		GeneratedBy: "cmd/sbcheck",
		Config: map[string]any{
			"cores": *cores, "chunks": *chunks, "seed": *seed, "app": *app,
			"depth": *depth, "budget": *budget, "states": *states,
			"unordered": *unordered, "skips": *skips, "noreduce": *noreduce,
		},
	}
	worst := 0
	for _, name := range names {
		opts := explore.DefaultOptions(name)
		if fromSpec != nil {
			opts.Spec = *fromSpec
		}
		opts.Cores = *cores
		opts.Chunks = *chunks
		opts.Seed = *seed
		opts.App = *app
		opts.Unordered = *unordered
		opts.MaxSkips = *skips
		opts.MaxDepth = *depth
		opts.MaxRuns = *budget
		opts.MaxStates = *states
		opts.NoReduce = *noreduce

		start := time.Now()
		r, err := explore.Explore(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbcheck:", err)
			return 1
		}
		pr := protoReport{Report: r, WallMS: float64(time.Since(start).Microseconds()) / 1000}
		fmt.Println(r.Summary())
		switch {
		case r.Violation != nil:
			worst = 3
			if r.Dump != "" {
				fmt.Printf("  machine state at the violation:\n%s", indent(r.Dump))
			}
			if r.Schedule != nil && *saveDir != "" {
				path := fmt.Sprintf("%s/sbcheck-%s-%s.json", *saveDir,
					sanitize(name), r.Violation.Kind)
				r.Schedule.Note = fmt.Sprintf("minimized counterexample: %s", r.Violation)
				if err := r.Schedule.Save(path); err != nil {
					fmt.Fprintln(os.Stderr, "sbcheck:", err)
					return 1
				}
				pr.Counterexample = path
				fmt.Printf("  counterexample written to %s (replay: sbcheck -schedule %s)\n", path, path)
			}
		case r.Outcome == "bounded" && worst == 0:
			worst = 2
		}
		rep.Protocols = append(rep.Protocols, pr)
	}

	if *outPath != "" {
		data, _ := json.MarshalIndent(&rep, "", "  ")
		data = append(data, '\n')
		if *outPath == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sbcheck:", err)
			return 1
		}
	}
	return worst
}

// replay re-executes a recorded schedule and reports whether it reproduced.
func replay(path string) int {
	s, err := explore.LoadSchedule(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbcheck:", err)
		return 1
	}
	if s.Note != "" {
		fmt.Printf("%s: %s\n", path, s.Note)
	}
	rr, err := s.Replay()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbcheck: NOT REPRODUCED:", err)
		if rr != nil && rr.Dump != "" {
			fmt.Printf("  machine state:\n%s", indent(rr.Dump))
		}
		return 3
	}
	if rr.Violation != nil {
		fmt.Printf("reproduced: %s (%d choice steps)\n", rr.Violation, rr.Steps)
		if rr.Dump != "" {
			fmt.Printf("  machine state at the violation:\n%s", indent(rr.Dump))
		}
		for _, line := range rr.Flight {
			fmt.Printf("  flight: %s\n", line)
		}
		return 0
	}
	fmt.Printf("reproduced: clean run, %d choice steps, final digest %#x\n", rr.Steps, rr.Digest)
	return 0
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ") + "\n"
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, name)
}
