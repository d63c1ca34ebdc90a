package scalablebulk_test

import (
	"fmt"
	"log"

	"scalablebulk"
)

// ExampleRun simulates one application on the paper's Table 2 machine and
// prints what the protocol did.
func ExampleRun() {
	// Pick one of the 18 SPLASH-2 / PARSEC application models.
	prof, ok := scalablebulk.AppByName("Barnes")
	if !ok {
		log.Fatal("unknown application")
	}

	// The Table 2 machine: 64 cores on a 2D torus, 32KB L1 / 512KB L2,
	// 2Kbit signatures, 2000-instruction chunks, ScalableBulk commits.
	cfg := scalablebulk.DefaultConfig(64, scalablebulk.ProtoScalableBulk)
	cfg.ChunksPerCore = 16

	res, err := scalablebulk.Run(prof, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s, %d processors, %s protocol\n", res.App, res.Cores, res.Protocol)
	fmt.Printf("  committed %d chunks in %d cycles\n", res.ChunksCommitted, res.Cycles)
	fmt.Printf("  mean chunk-commit latency: %.0f cycles\n", res.MeanCommitLatency())

	dirsTotal, dirsWrite := res.Coll.MeanDirsPerCommit()
	fmt.Printf("  directories per commit: %.1f (%.1f recording writes)\n", dirsTotal, dirsWrite)

	tot := float64(res.Breakdown.Total())
	fmt.Printf("  cycles: %.0f%% useful, %.0f%% cache miss, %.0f%% commit stall, %.0f%% squash\n",
		100*float64(res.Breakdown.Useful)/tot,
		100*float64(res.Breakdown.CacheMiss)/tot,
		100*float64(res.Breakdown.Commit)/tot,
		100*float64(res.Breakdown.Squash)/tot)
	fmt.Printf("  squashes: %d true conflicts, %d signature aliasing\n",
		res.Coll.SquashTrueConflict, res.Coll.SquashAliasing)
	// Output:
	// Barnes, 64 processors, ScalableBulk protocol
	//   committed 1024 chunks in 178037 cycles
	//   mean chunk-commit latency: 306 cycles
	//   directories per commit: 7.6 (5.4 recording writes)
	//   cycles: 19% useful, 58% cache miss, 0% commit stall, 23% squash
	//   squashes: 22 true conflicts, 393 signature aliasing
}

// ExampleRunScaled sweeps machine sizes on fixed whole-problem work (the
// paper's strong-scaling setup) and prints the speedup curve per protocol:
// the essence of Figures 7/8. The distributed protocols scale from 32 to 64
// processors; the centralized BulkSC arbiter stops scaling.
func ExampleRunScaled() {
	const app = "Water-S"
	prof, ok := scalablebulk.AppByName(app)
	if !ok {
		log.Fatalf("unknown app %q", app)
	}

	const totalWork = 1024 // whole-problem chunks, split across the cores
	sizes := []int{1, 4, 16, 32, 64}

	fmt.Printf("%s, %d chunks of total work — execution cycles (speedup vs 1 core)\n", app, totalWork)
	fmt.Printf("%-8s", "cores")
	for _, protocol := range scalablebulk.Protocols {
		fmt.Printf(" %22s", protocol)
	}
	fmt.Println()

	base := map[string]float64{}
	for _, cores := range sizes {
		fmt.Printf("%-8d", cores)
		for _, protocol := range scalablebulk.Protocols {
			cfg := scalablebulk.DefaultConfig(cores, protocol)
			res, err := scalablebulk.RunScaled(prof, cfg, totalWork)
			if err != nil {
				log.Fatal(err)
			}
			if cores == 1 {
				base[protocol] = float64(res.Cycles)
			}
			fmt.Printf(" %13d (%5.1fx)", res.Cycles, base[protocol]/float64(res.Cycles))
		}
		fmt.Println()
	}
	// Output:
	// Water-S, 1024 chunks of total work — execution cycles (speedup vs 1 core)
	// cores              ScalableBulk                    TCC                    SEQ                 BulkSC
	// 1              8166292 (  1.0x)       8166354 (  1.0x)       8166292 (  1.0x)       8166296 (  1.0x)
	// 4              2010836 (  4.1x)       2007000 (  4.1x)       2010804 (  4.1x)       2011388 (  4.1x)
	// 16              470254 ( 17.4x)        470363 ( 17.4x)        470115 ( 17.4x)        483503 ( 16.9x)
	// 32              219595 ( 37.2x)        219831 ( 37.1x)        219595 ( 37.2x)        230997 ( 35.4x)
	// 64              112460 ( 72.6x)        110063 ( 74.2x)        112287 ( 72.7x)        147730 ( 55.3x)
}

// Example_chunkSize is the paper's §2.2 argument, "Is Commit Really
// Critical?". Scalable TCC's and SRC's evaluations used software-defined
// transactions of 10K–40K instructions and concluded commit overhead hides
// behind execution; ScalableBulk targets automatic 2000-instruction chunks,
// where commits are an order of magnitude more frequent.
//
// The sweep grows the chunk size under the TCC baseline: at 2000
// instructions its same-directory serialization queues chunks machine-wide;
// by 32000 instructions the overhead disappears, which is why the earlier
// papers saw no problem and this paper does.
func Example_chunkSize() {
	prof, _ := scalablebulk.AppByName("Radix")
	const totalInstr = 64 * 2000 // per-core instructions, held constant

	fmt.Println("Radix on 64 processors under Scalable TCC, same total work:")
	fmt.Printf("%-12s %10s %14s %12s %12s\n",
		"chunk size", "commits", "mean lat (cy)", "chunk queue", "exec cycles")
	for _, instr := range []int{2000, 4000, 8000, 16000, 32000} {
		big := prof
		big.ChunkInstr = instr
		cfg := scalablebulk.DefaultConfig(64, scalablebulk.ProtoTCC)
		cfg.ChunksPerCore = totalInstr / instr
		res, err := scalablebulk.Run(big, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12d %10d %14.0f %12.2f %12d\n",
			instr, res.ChunksCommitted, res.MeanCommitLatency(),
			res.Coll.MeanQueueLength(), res.Cycles)
	}
	fmt.Println("\nSame instructions, bigger chunks, far fewer commits: TCC's execution")
	fmt.Println("time collapses as the commit serialization amortizes (§2.2) — which is")
	fmt.Println("why the transaction-oriented baselines saw no commit problem and")
	fmt.Println("ScalableBulk's always-on, 2000-instruction environment does.")
	// Output:
	// Radix on 64 processors under Scalable TCC, same total work:
	// chunk size      commits  mean lat (cy)  chunk queue  exec cycles
	// 2000               4096           6391        49.43       574599
	// 4000               2048           1468         8.83       296745
	// 8000               1024            626         2.47       216003
	// 16000               512            724         3.71       182057
	// 32000               256           1003         6.59       181855
	//
	// Same instructions, bigger chunks, far fewer commits: TCC's execution
	// time collapses as the commit serialization amortizes (§2.2) — which is
	// why the transaction-oriented baselines saw no commit problem and
	// ScalableBulk's always-on, 2000-instruction environment does.
}
