package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"scalablebulk/internal/core.(*Protocol).onCommitRequest": "core",
		"math/rand.seedrand": "std.math_rand",
		"scalablebulk/internal/protocol/kernel.(*Kernel).Commit":  "kernel",
		"scalablebulk/internal/system.Build.func1":                "system",
		"scalablebulk/internal/check.(*Checker).Apply":            "internal_other",
		"scalablebulk.(*Session).run":                             "scalablebulk",
		"main.(*runner).splitRun":                                 "perfbench",
		"runtime.mallocgc":                                        "runtime",
		"runtime/pprof.(*profMap).lookup":                         "runtime",
		"net/http.(*conn).serve":                                  "std.net_http",
		"encoding/json.(*decodeState).object":                     "std.encoding_json",
		"sync.(*Mutex).Lock":                                      "std.other",
		"crypto/sha256.block":                                     "std.other",
		"github.com/example/lib.Func":                             "other",
		"scalablebulk/perfbench.burn":                             "perfbench",
		"scalablebulk/internal/protocol/all.init":                 "internal_other",
		"scalablebulk/internal/cache.(*Hierarchy).Fill":           "cache",
		"scalablebulk/internal/workload.(*synthetic).WarmupChunk": "workload",
	} {
		if got := packageGroup(fn); got != want {
			t.Errorf("packageGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

var burnSink uint64

func burn(d time.Duration) {
	x := uint64(1)
	for t := time.Now(); time.Since(t) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	burnSink = x
}

func TestProfileSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, total, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Skip("profile caught no samples")
	}
	var sum float64
	for _, g := range shareGroups {
		sum += shares[g]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["perfbench"] < 0.5 {
		t.Errorf("burn loop share = %v, want most of the profile; shares %v", shares["perfbench"], shares)
	}
}
