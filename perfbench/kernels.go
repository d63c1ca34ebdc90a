package main

import (
	"time"

	"scalablebulk/internal/event"
	"scalablebulk/internal/sig"
)

// kernelRounds is how many samples each kernel gets. Rounds interleave the
// kernels (round r times every kernel once before round r+1 starts), so
// host drift during the run spreads over all of them instead of biasing
// whichever ran last.
const kernelRounds = 7

// kernelSampleTarget is roughly how long one sample runs, long enough that
// timer resolution is far below the kernel's own cost.
const kernelSampleTarget = 20 * time.Millisecond

var (
	sinkBool bool
	sinkSig  sig.Sig
)

type kernel struct {
	name string
	// run executes the kernel n times and returns how many operations that
	// was (the event mix counts scheduled events, not calls).
	run func(n int) int
}

func sigFixtures() (a, b sig.Sig) {
	return sig.FromLines([]sig.Line{1, 513, 4097, 70000}),
		sig.FromLines([]sig.Line{2, 514, 4098, 70001})
}

// kernels lists the signature kernels beside their Ref* oracles, and the
// event-queue mix: chains of +7 link hops and +2 directory lookups,
// occasional +300 memory trips, and cancelled +200k watchdogs.
func kernels() []kernel {
	x, y := sigFixtures()
	loop := func(f func()) func(int) int {
		return func(n int) int {
			for i := 0; i < n; i++ {
				f()
			}
			return n
		}
	}
	return []kernel{
		{"sig.overlaps_ns", loop(func() { sinkBool = x.Overlaps(&y) })},
		{"sig.overlaps_ref_ns", loop(func() { sinkBool = sig.RefOverlaps(&x, &y) })},
		{"sig.union_ns", loop(func() { sinkSig = x.Union(y) })},
		{"sig.union_ref_ns", loop(func() { sinkSig = sig.RefUnion(x, y) })},
		{"sig.empty_ns", loop(func() { sinkBool = x.Empty() })},
		{"sig.empty_ref_ns", loop(func() { sinkBool = sig.RefEmpty(&x) })},
		{"event.queue_ns_per_op", func(n int) int {
			for i := 0; i < n; i++ {
				eventLoad(eventLoadEvents)
			}
			return n * eventLoadEvents
		}},
	}
}

const eventLoadEvents = 10_000

// eventLoad replays the simulator's event mix on a fresh calendar engine.
func eventLoad(n int) {
	e := event.New()
	var watchdogs []event.Ticket
	var chain event.Handler
	left := n
	chain = func() {
		if left == 0 {
			return
		}
		left--
		d := event.Time(7)
		switch left % 29 {
		case 0:
			d = 300
		case 1:
			d = 2
		}
		e.After(d, chain)
		if left%97 == 0 {
			watchdogs = append(watchdogs, e.After(200_000, func() {}))
		}
		if len(watchdogs) > 4 {
			watchdogs[0].Cancel()
			watchdogs = watchdogs[1:]
		}
	}
	e.At(1, chain)
	for e.Step() {
	}
}

// sampleKernels times every kernel kernelRounds times, interleaved, and
// returns each kernel's ns/op samples. A short calibration sizes each
// kernel's batch to about kernelSampleTarget.
func sampleKernels(tr *tracer) map[string][]float64 {
	ks := kernels()
	batch := make([]int, len(ks))
	for i, k := range ks {
		n := 1
		for {
			t := time.Now()
			k.run(n)
			if d := time.Since(t); d >= kernelSampleTarget/10 || n >= 1<<30 {
				batch[i] = max(1, int(float64(n)*float64(kernelSampleTarget)/float64(max(d, 1))))
				break
			}
			n *= 4
		}
	}
	out := map[string][]float64{}
	for r := 0; r < kernelRounds; r++ {
		for i, k := range ks {
			sp := tr.begin("kernel." + k.name)
			t := time.Now()
			ops := k.run(batch[i])
			d := time.Since(t)
			tr.end(sp)
			out[k.name] = append(out[k.name], float64(d.Nanoseconds())/float64(ops))
		}
	}
	return out
}
