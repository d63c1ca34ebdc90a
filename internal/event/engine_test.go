package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var e Engine
	ran := false
	e.After(5, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("event did not fire")
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %d, want 5", e.Now())
	}
}

func TestFIFOOrderingAtSameTime(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-cycle events fired out of scheduling order: %v", order)
	}
	if len(order) != 10 {
		t.Fatalf("fired %d events, want 10", len(order))
	}
}

func TestTimeOrdering(t *testing.T) {
	e := New()
	var times []Time
	for _, d := range []Time{9, 3, 14, 3, 0, 100, 7} {
		e.At(d, func() { times = append(times, e.Now()) })
	}
	e.Run()
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("events fired out of time order: %v", times)
		}
	}
}

func TestScheduleInsideHandler(t *testing.T) {
	e := New()
	var hits []Time
	e.At(1, func() {
		hits = append(hits, e.Now())
		e.After(4, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 5 {
		t.Fatalf("hits = %v, want [1 5]", hits)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	tk := e.At(3, func() { fired = true })
	tk.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and cancel-after-run are no-ops.
	tk.Cancel()
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var got []int
	var tks []Ticket
	for i := 0; i < 5; i++ {
		i := i
		tks = append(tks, e.At(Time(i), func() { got = append(got, i) }))
	}
	tks[2].Cancel()
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestScheduleAfterCancelledDrain: a Step that finds only cancelled events
// leaves the queue empty and the clock where it was, and an event scheduled
// next, however close to now, fires before a later one.
func TestScheduleAfterCancelledDrain(t *testing.T) {
	e := New()
	e.At(10, func() {})
	e.At(5000, func() {}).Cancel() // in the overflow heap
	e.At(20, func() {}).Cancel()   // in the ring
	for e.Step() {
	}
	if e.Now() != 10 || e.Pending() != 0 {
		t.Fatalf("Now = %d, Pending = %d after the drain; want 10, 0", e.Now(), e.Pending())
	}
	var fired []Time
	e.At(6000, func() { fired = append(fired, e.Now()) })
	e.After(10, func() { fired = append(fired, e.Now()) })
	e.Run()
	if len(fired) != 2 || fired[0] != 20 || fired[1] != 6000 {
		t.Fatalf("fired at %v, want [20 6000]", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

// Property: for any random schedule, events fire in nondecreasing time order
// and every non-cancelled event fires exactly once.
func TestPropertyOrderAndCompleteness(t *testing.T) {
	f := func(delays []uint16, seed int64) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		e := New()
		rng := rand.New(rand.NewSource(seed))
		fired := make([]bool, len(delays))
		var last Time
		ok := true
		cancelled := make(map[int]bool)
		var tks []Ticket
		for i, d := range delays {
			i := i
			tks = append(tks, e.At(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				if fired[i] {
					ok = false // double fire
				}
				fired[i] = true
			}))
		}
		for i := range delays {
			if rng.Intn(4) == 0 {
				tks[i].Cancel()
				cancelled[i] = true
			}
		}
		e.Run()
		for i := range delays {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func() {})
		}
		e.Run()
	}
}
