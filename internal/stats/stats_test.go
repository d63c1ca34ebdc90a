package stats

import (
	"math"
	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
	"testing"
)

func TestBreakdown(t *testing.T) {
	b := Breakdown{Useful: 10, CacheMiss: 5, Commit: 3, Squash: 2}
	if b.Total() != 20 {
		t.Fatalf("Total = %d", b.Total())
	}
	b.Add(Breakdown{Useful: 1, CacheMiss: 1, Commit: 1, Squash: 1})
	if b.Total() != 24 || b.Useful != 11 {
		t.Fatalf("Add wrong: %+v", b)
	}
}

func TestMeanCommitLatency(t *testing.T) {
	c := New()
	if c.MeanCommitLatency() != 0 {
		t.Fatal("empty mean not 0")
	}
	c.CommitLatency(100)
	c.CommitLatency(200)
	if got := c.MeanCommitLatency(); got != 150 {
		t.Fatalf("mean = %v", got)
	}
}

func TestDirsPerCommit(t *testing.T) {
	c := New()
	c.DirsPerCommit(4, 2)
	c.DirsPerCommit(2, 1)
	tot, wr := c.MeanDirsPerCommit()
	if tot != 3 || wr != 1.5 {
		t.Fatalf("means = %v,%v", tot, wr)
	}
	c.DirsPerCommit(500, 500) // clamped
	if c.DirsTotal[2] != 255 {
		t.Fatal("clamp failed")
	}
}

func TestDirsDistribution(t *testing.T) {
	c := New()
	c.DirsPerCommit(1, 0)
	c.DirsPerCommit(1, 1)
	c.DirsPerCommit(3, 1)
	c.DirsPerCommit(20, 5)
	d := c.DirsDistribution(14)
	if d[1] != 50 {
		t.Fatalf("d[1] = %v, want 50", d[1])
	}
	if d[3] != 25 {
		t.Fatalf("d[3] = %v, want 25", d[3])
	}
	if d[15] != 25 { // "more" bucket
		t.Fatalf("more bucket = %v, want 25", d[15])
	}
	var sum float64
	for _, v := range d {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("distribution sums to %v", sum)
	}
}

func TestAttemptLifecycleCounts(t *testing.T) {
	c := New()
	c.CommitStarted(0, 1, 0, 10)
	c.GroupFormed(0, 1, 0, 20)
	c.CommitEnded(0, 1, 0, 30, true)
	c.CommitStarted(1, 1, 0, 12)
	c.CommitEnded(1, 1, 0, 25, false)
	if c.ChunksCommitted != 1 || c.CommitFailures != 1 {
		t.Fatalf("committed=%d failures=%d", c.ChunksCommitted, c.CommitFailures)
	}
}

func TestBottleneckRatioSerialVsOverlapped(t *testing.T) {
	// Fully serial commits: while each group forms, no other is committing
	// except the previous one finishing — construct a clearly bottlenecked
	// trace vs a clearly overlapped one and compare.
	serial := New()
	// Ten chunks all request at t=0 but form one at a time (stalled waiting
	// for one another): at each formation many chunks are still forming.
	for i := 0; i < 10; i++ {
		serial.CommitStarted(i, 1, 0, 0)
		serial.GroupFormed(i, 1, 0, event.Time(100*(i+1)))
		serial.CommitEnded(i, 1, 0, event.Time(100*(i+1)+50), true)
	}
	fast := New()
	// Ten chunks whose groups form immediately and commit slowly: at each
	// formation nobody else is stuck forming.
	for i := 0; i < 10; i++ {
		t0 := event.Time(i * 10)
		fast.CommitStarted(i, 1, 0, t0)
		fast.GroupFormed(i, 1, 0, t0+1)
		fast.CommitEnded(i, 1, 0, t0+100, true)
	}
	if serial.BottleneckRatio() <= fast.BottleneckRatio() {
		t.Fatalf("serial ratio %v should exceed overlapped ratio %v",
			serial.BottleneckRatio(), fast.BottleneckRatio())
	}
}

func TestBottleneckRatioExcludesFailures(t *testing.T) {
	c := New()
	c.CommitStarted(0, 1, 0, 0)
	c.CommitEnded(0, 1, 0, 50, false) // failed: excluded
	if got := c.BottleneckRatio(); got != 0 {
		t.Fatalf("ratio with only failures = %v, want 0", got)
	}
}

func TestQueueSamples(t *testing.T) {
	c := New()
	if c.MeanQueueLength() != 0 {
		t.Fatal("empty queue mean not 0")
	}
	c.SampleQueue(2)
	c.SampleQueue(4)
	if c.MeanQueueLength() != 3 {
		t.Fatalf("mean queue = %v", c.MeanQueueLength())
	}
}

func TestSquashClassification(t *testing.T) {
	c := New()
	c.Squashed(true)
	c.Squashed(false)
	c.Squashed(false)
	if c.SquashTrueConflict != 1 || c.SquashAliasing != 2 {
		t.Fatalf("squash counts %d/%d", c.SquashTrueConflict, c.SquashAliasing)
	}
}

func TestTrafficClasses(t *testing.T) {
	var byKind [msg.NumKinds]uint64
	byKind[msg.ReadReq] = 10 // requests are reconstructed from replies
	byKind[msg.ReadMemReply] = 4
	byKind[msg.ReadShReply] = 3
	byKind[msg.ReadDirtyFwd] = 2
	byKind[msg.ReadDirtyReply] = 2
	byKind[msg.ReadNack] = 1
	byKind[msg.CommitRequest] = 5 // large (carries signatures)
	byKind[msg.BulkInv] = 6       // large
	byKind[msg.Grab] = 7          // small
	byKind[msg.CommitDone] = 8    // small

	cls := TrafficClasses(byKind)
	if cls[msg.ClassMemRd] != 8 { // 2 × replies
		t.Errorf("MemRd = %d, want 8", cls[msg.ClassMemRd])
	}
	if cls[msg.ClassRemoteShRd] != 6 {
		t.Errorf("RemoteShRd = %d, want 6", cls[msg.ClassRemoteShRd])
	}
	if cls[msg.ClassRemoteDirtyRd] != 6 { // 3 × replies
		t.Errorf("RemoteDirtyRd = %d, want 6", cls[msg.ClassRemoteDirtyRd])
	}
	if cls[msg.ClassLargeC] != 11 {
		t.Errorf("LargeC = %d, want 11", cls[msg.ClassLargeC])
	}
	if cls[msg.ClassSmallC] != 17 { // 7 + 8 + 2×nack
		t.Errorf("SmallC = %d, want 17", cls[msg.ClassSmallC])
	}
}
