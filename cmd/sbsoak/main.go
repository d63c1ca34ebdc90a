// Command sbsoak is the long-soak runner: it sweeps applications ×
// protocols × core counts under a fault profile across seed rounds, with
// every resilience feature engaged — per-run wall-clock timeouts, per-point
// panic isolation with crash bundles, and a JSONL checkpoint journal so a
// soak killed by SIGINT/SIGTERM resumes where it left off. A run is
// deterministic, so a point that exceeds its cycle budget (-maxcycles) is
// reported as a failure rather than retried: rerunning it with a larger
// budget replays the same simulation.
//
// Usage:
//
//	sbsoak                                  # default soak (chaos profile)
//	sbsoak -quick                           # CI smoke matrix
//	sbsoak -rounds 8 -faults loss -j 4      # 8 seed rounds of the loss profile
//	sbsoak -proto ScalableBulk,TCC          # restrict the protocol matrix
//	sbsoak -protocols                       # list the protocol table
//	sbsoak -journal soak.jsonl              # kill it; rerun resumes
//
// Exit codes: 0 all points completed; 1 setup/internal error; 2 aborted
// (signal or deadline); 3 completed with point failures (see -crashdir).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"scalablebulk"
	"scalablebulk/internal/cliutil"
	"scalablebulk/internal/explore"
	"scalablebulk/internal/farm"
	"scalablebulk/internal/fault"
	"scalablebulk/internal/metrics"
)

type roundReport struct {
	Seed      int64   `json:"seed"`
	Profile   string  `json:"fault_profile"`
	Points    int     `json:"points"`
	Completed int     `json:"completed"`
	Restored  int     `json:"restored"`
	Failures  int     `json:"failures"`
	WallMS    float64 `json:"wall_ms"`
}

type soakReport struct {
	GeneratedBy string         `json:"generated_by"`
	Config      map[string]any `json:"config"`
	Rounds      []roundReport  `json:"rounds"`
	Points      int            `json:"points_total"`
	Completed   int            `json:"completed_total"`
	Restored    int            `json:"restored_total"`
	Failures    []string       `json:"failures,omitempty"`
	Aborted     bool           `json:"aborted"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		journalPath = flag.String("journal", "sbsoak.journal.jsonl", "JSONL checkpoint journal; an interrupted soak resumes from it ('' disables; with -server, use sbserver -journal)")
		crashDir    = flag.String("crashdir", "crashes", "directory for per-point crash bundles ('' disables)")
		chunks      = flag.Int("chunks", 4, "Session ChunksPerCore (whole-problem work = 64× this)")
		seed        = flag.Int64("seed", 1, "base seed; round r uses seed+r")
		rounds      = flag.Int("rounds", 2, "seed rounds to sweep")
		faults      = flag.String("faults", "chaos",
			"fault-injection profile: off | "+strings.Join(fault.Names(), " | "))
		faultSeed = flag.Int64("faultseed", 0, "fault injector seed (0: reuse the run seed)")
		apps      = flag.String("apps", "Radix,Barnes,FFT", "comma-separated application models and/or workload source names")
		protos    = flag.String("proto", strings.Join(scalablebulk.Protocols, ","), "comma-separated protocols to soak")
		protoList = flag.Bool("protocols", false, "list registered commit protocols and exit")
		wlList    = flag.Bool("workloads", false, "list registered workload sources and exit")
		coresList = flag.String("cores", "8,16", "comma-separated core counts")
		par       = flag.Int("j", 0, "sweep parallelism (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "per-run wall-clock budget (0 = none)")
		maxCycles = flag.Int64("maxcycles", 0, "cycle budget per run (0 = Table 2 default); a run that exceeds it fails its point")
		outPath   = flag.String("o", "", "write a JSON soak report to this path (- for stdout)")
		quick     = flag.Bool("quick", false, "CI smoke matrix: 2 apps × 4 protocols × 8 cores, 1 round, tiny chunks")
		progress  = flag.Duration("progress", 30*time.Second, "sweep heartbeat period on stderr (0 disables)")
		telemetry = flag.String("telemetry", "", "serve live metrics on this address (e.g. :8090): /metrics, /metrics.prom, /debug/pprof")
		server    = flag.String("server", "", "run each round's sweep on a sweep-farm server at this base URL (the server owns the journal)")
	)
	flag.Parse()
	if *maxCycles < 0 {
		fmt.Fprintln(os.Stderr, "sbsoak: -maxcycles must be ≥ 0")
		return cliutil.ExitError
	}
	if err := cliutil.CheckTimeout(*timeout); err != nil {
		fmt.Fprintln(os.Stderr, "sbsoak:", err)
		return cliutil.ExitError
	}
	// The default journal path stays out of the way of -server; one the user
	// names would be silently ignored there, so it is an error.
	journalSet := false
	flag.Visit(func(f *flag.Flag) { journalSet = journalSet || f.Name == "journal" })
	if journalSet && *journalPath != "" && *server != "" {
		fmt.Fprintln(os.Stderr, "sbsoak: -journal cannot combine with -server: the server owns the journal (sbserver -journal)")
		return cliutil.ExitError
	}

	if *protoList {
		fmt.Print(cliutil.ProtocolList())
		return 0
	}
	if *wlList {
		fmt.Print(cliutil.WorkloadList())
		return 0
	}
	if *quick {
		*apps, *coresList, *rounds, *chunks = "Radix,FFT", "8", 1, 2
	}
	profile, err := fault.ByName(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbsoak:", err)
		return cliutil.ExitError
	}
	var points []scalablebulk.Point
	coreCounts, err := splitInts(*coresList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbsoak:", err)
		return cliutil.ExitError
	}
	for _, app := range strings.Split(*apps, ",") {
		if _, err := scalablebulk.ResolvePointProfile(app, &scalablebulk.Config{}); err != nil {
			fmt.Fprintf(os.Stderr, "sbsoak: %v (-workloads lists sources)\n", err)
			return cliutil.ExitError
		}
		for _, protocol := range strings.Split(*protos, ",") {
			if err := cliutil.CheckProtocol(protocol); err != nil {
				fmt.Fprintln(os.Stderr, "sbsoak:", err)
				return cliutil.ExitError
			}
			for _, cores := range coreCounts {
				points = append(points, scalablebulk.Point{App: app, Protocol: protocol, Cores: cores})
			}
		}
	}
	parallelism := *par
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}

	ctx, stop := cliutil.SignalContext()
	defer stop()

	var reg *metrics.Registry
	if *telemetry != "" {
		reg = metrics.NewRegistry()
		addr, closeFn, err := metrics.Serve(*telemetry, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbsoak:", err)
			return cliutil.ExitError
		}
		defer closeFn()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (also /metrics.prom, /debug/pprof)\n", addr)
	}

	var journal *scalablebulk.Journal
	if *journalPath != "" && *server == "" {
		journal, err = scalablebulk.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbsoak:", err)
			return cliutil.ExitError
		}
		defer journal.Close()
		fmt.Fprintf(os.Stderr, "journal %s: %d checkpointed point(s)\n", *journalPath, journal.Len())
	}

	rep := soakReport{
		GeneratedBy: "cmd/sbsoak",
		Config: map[string]any{
			"chunks_per_core": *chunks, "seed": *seed, "rounds": *rounds,
			"faults": *faults, "apps": *apps, "protocols": *protos,
			"cores": *coresList, "parallelism": parallelism,
			"timeout": timeout.String(), "maxcycles": *maxCycles,
			"quick":    *quick,
			"progress": progress.String(), "telemetry": *telemetry,
		},
	}
	var failures []string
	// One client for every round: once the server has answered, a refused
	// connection means it is restarting, and later rounds retry through it.
	client := &farm.Client{Base: *server}
	for r := 0; r < *rounds; r++ {
		roundSeed := *seed + int64(r)
		spec := scalablebulk.SweepSpec{
			ChunksPerCore: *chunks, Seed: roundSeed,
			Faults: *faults, FaultSeed: *faultSeed,
			MaxCycles: uint64(*maxCycles), RunTimeoutMS: timeout.Milliseconds(),
			Points: points,
		}
		start := time.Now()
		var out *scalablebulk.SweepOutcome
		if *server != "" {
			// Farm mode: the round's sweep runs on sbworkers; the server owns
			// the journal, so restores and dedup happen there.
			client.Corr = farm.NewCorrID()
			fmt.Fprintf(os.Stderr, "sbsoak: round seed=%d corr=%s\n", roundSeed, client.Corr)
			var rerr error
			out, rerr = client.RunSweep(ctx, &spec, nil)
			if rerr != nil {
				fmt.Fprintln(os.Stderr, "sbsoak:", rerr)
				return cliutil.ExitError
			}
		} else {
			s := scalablebulk.NewSession(*chunks, roundSeed, nil)
			s.SweepSpec = spec
			s.CrashDir = *crashDir
			s.Metrics = reg
			if *progress > 0 {
				round := r + 1
				s.ProgressInterval = *progress
				s.OnProgress = func(p scalablebulk.SweepProgress) {
					if p.Final {
						return // the per-round summary line covers completion
					}
					fmt.Fprintf(os.Stderr,
						"round %d: %d/%d points (%d failed), %s elapsed, ETA %s, last %s/%s/%d fp=%s\n",
						round, p.Done, p.Total, p.Failed,
						p.Elapsed.Round(time.Second), p.ETA.Round(time.Second),
						p.LastPoint.App, p.LastPoint.Protocol, p.LastPoint.Cores, p.LastFingerprint)
				}
			}
			if journal != nil {
				s.UseJournal(journal)
			}
			out = s.SweepContext(ctx, points, parallelism)
		}
		rr := roundReport{
			Seed: roundSeed, Profile: *faults, Points: out.Points,
			Completed: out.Completed, Restored: out.Restored,
			Failures: len(out.Failures),
			WallMS:   float64(time.Since(start).Microseconds()) / 1000,
		}
		rep.Rounds = append(rep.Rounds, rr)
		rep.Points += out.Points
		rep.Completed += out.Completed
		rep.Restored += out.Restored
		for _, f := range out.Failures {
			failures = append(failures, f.Err.Error())
			fmt.Fprintf(os.Stderr, "FAIL %s/%s/%d: %v\n", f.Point.App, f.Point.Protocol, f.Point.Cores, f.Err)
			if path, err := writeCheckSpec(*crashDir, f.Point, roundSeed, *chunks, profile.Enabled()); err != nil {
				fmt.Fprintf(os.Stderr, "sbsoak: check spec: %v\n", err)
			} else if path != "" {
				fmt.Fprintf(os.Stderr, "  model-check this shape: sbcheck -spec %s\n", path)
			}
		}
		fmt.Printf("round %d (seed %d, profile %s): points=%d completed=%d restored=%d failures=%d (%.1fs)\n",
			r+1, roundSeed, *faults, rr.Points, rr.Completed, rr.Restored, rr.Failures,
			time.Since(start).Seconds())
		if out.Aborted {
			rep.Aborted = true
			break
		}
	}
	rep.Failures = failures

	fmt.Printf("sbsoak: done points=%d completed=%d restored=%d failures=%d aborted=%v\n",
		rep.Points, rep.Completed, rep.Restored, len(failures), rep.Aborted)
	if *outPath != "" {
		data, _ := json.MarshalIndent(&rep, "", "  ")
		data = append(data, '\n')
		if *outPath == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sbsoak:", err)
			return cliutil.ExitError
		}
	}
	return cliutil.ExitCode(len(failures), rep.Aborted)
}

// writeCheckSpec serializes a failed point as an sbcheck starting state: the
// same protocol, seed and App label (an application model or a workload
// source) on a checker-sized configuration (2–4 cores, ≤3 chunks). The
// checker cannot reproduce a fault-injected run, but it can exhaust the
// interleavings of the failing shape — with unordered mode standing in for
// the injector's delivery jitter, which is why a faulted point's spec sets
// it.
func writeCheckSpec(dir string, p scalablebulk.Point, seed int64, chunks int, faulted bool) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	spec := explore.DefaultSpec(p.Protocol)
	spec.Cores = min(p.Cores, 4)
	spec.Chunks = min(chunks, 3)
	spec.Seed = seed
	spec.App = p.App
	spec.Unordered = faulted
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.sbcheck.json", p.App, p.Protocol, p.Cores))
	if err := spec.Save(path); err != nil {
		return "", err
	}
	return path, nil
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad core count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
