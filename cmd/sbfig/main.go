// Command sbfig regenerates the paper's evaluation figures (Figures 7–19 of
// §6) as text tables, printing the same rows/series the paper plots.
//
// Usage:
//
//	sbfig                  # regenerate every figure
//	sbfig -fig 13          # just the commit-latency characterization
//	sbfig -chunks 32       # higher-fidelity (slower) regeneration
//	sbfig -journal f.jsonl # checkpoint the prefetch; kill + rerun resumes
//
// Exit codes: 0 success; 1 setup/internal error; 2 aborted by SIGINT/SIGTERM;
// 3 prefetch completed with point failures.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"scalablebulk"
	"scalablebulk/internal/cliutil"
	"scalablebulk/internal/farm"
)

func main() {
	os.Exit(run())
}

func run() int {
	start := time.Now()
	fig := flag.Int("fig", 0, "figure number 7–19 (0 = all)")
	chunks := flag.Int("chunks", 16, "chunks per core at 64 processors (whole-problem work = 64× this)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	squash := flag.Bool("squash", false, "also print the §6.1 squash classification")
	par := flag.Int("j", 0, "parallel simulations during prefetch (0 = all CPUs)")
	journal := flag.String("journal", "", "JSONL checkpoint journal for the prefetch; an interrupted run resumes from it (with -server, use sbserver -journal)")
	server := flag.String("server", "", "prefetch the sweep on a sweep-farm server at this base URL instead of in-process")
	protoList := flag.Bool("protocols", false, "list registered commit protocols and exit")
	flag.Parse()

	if *protoList {
		fmt.Print(cliutil.ProtocolList())
		return 0
	}
	if *journal != "" && *server != "" {
		fmt.Fprintln(os.Stderr, "sbfig: -journal cannot combine with -server: the server owns the journal (sbserver -journal)")
		return cliutil.ExitError
	}

	ctx, stop := cliutil.SignalContext()
	defer stop()

	s := scalablebulk.NewSession(*chunks, *seed, os.Stdout)
	if *journal != "" {
		j, err := scalablebulk.OpenJournal(*journal)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return cliutil.ExitError
		}
		defer j.Close()
		s.UseJournal(j)
		fmt.Fprintf(os.Stderr, "journal %s: %d checkpointed point(s)\n", *journal, j.Len())
	}
	if *fig == 0 || *server != "" {
		// Regenerating everything: run the simulations in parallel first —
		// locally, or on the farm with results injected into the session's
		// cache so the figure renderers below never notice the difference.
		var out *scalablebulk.SweepOutcome
		if *server != "" {
			fmt.Fprintln(os.Stderr, "prefetching simulations via", *server, "...")
			spec := s.SweepSpec
			spec.Points = s.SweepPoints()
			client := &farm.Client{Base: *server, Corr: farm.NewCorrID()}
			fmt.Fprintf(os.Stderr, "farm sweep corr=%s\n", client.Corr)
			var err error
			out, err = client.RunSweep(ctx, &spec, func(p farm.Point, res *scalablebulk.Result, _ bool) {
				s.Inject(p, res)
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "sbfig:", err)
				return cliutil.ExitError
			}
		} else {
			fmt.Fprintln(os.Stderr, "prefetching simulations...")
			out = s.SweepContext(ctx, s.SweepPoints(), *par)
		}
		if out.Restored > 0 {
			fmt.Fprintf(os.Stderr, "restored %d point(s) from the journal\n", out.Restored)
		}
		if code := cliutil.SweepExitCode(os.Stderr, "sbfig", out); code != cliutil.ExitOK {
			if out.Aborted && len(out.Failures) == 0 {
				fmt.Fprintln(os.Stderr, "sbfig: aborted")
			}
			return code
		}
	}
	ids := scalablebulk.FigureIDs()
	if *fig != 0 {
		ids = []int{*fig}
	}
	for _, id := range ids {
		fmt.Printf("\n================ Figure %d ================\n", id)
		if err := s.Figure(id); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return cliutil.ExitError
		}
	}
	if *squash || *fig == 0 {
		fmt.Printf("\n================ §6.1 squashes ================\n")
		if err := s.SquashSummary(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return cliutil.ExitError
		}
	}
	fmt.Fprintf(os.Stderr, "regenerated in %v\n", time.Since(start).Round(time.Second))
	return cliutil.ExitOK
}
