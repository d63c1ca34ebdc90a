// Package stats collects and reduces every metric the paper's evaluation
// section reports: per-core cycle breakdowns (Figures 7/8), directories
// accessed per chunk commit (Figures 9–12), commit latency distributions
// (Figure 13), the bottleneck ratio (Figures 14/15), chunk queue lengths
// (Figures 16/17), and squash classification (§6.1).
package stats

import (
	"sort"

	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/trace"
)

// TrafficClasses reduces per-kind message counts into the five Figure 18/19
// classes. Read transactions are reconstructed from their replies: a memory
// read is request+reply (2 messages), a remote-shared read likewise, and a
// remote-dirty read is request+forward+reply (3 messages). Nacked reads and
// their retries count as small commit-protocol traffic, since the nack is a
// commit-window artifact (§3.1).
func TrafficClasses(byKind [msg.NumKinds]uint64) [msg.NumClasses]uint64 {
	var out [msg.NumClasses]uint64
	out[msg.ClassMemRd] = 2 * byKind[msg.ReadMemReply]
	out[msg.ClassRemoteShRd] = 2 * byKind[msg.ReadShReply]
	out[msg.ClassRemoteDirtyRd] = 3 * byKind[msg.ReadDirtyReply]
	for k := 0; k < msg.NumKinds; k++ {
		kind := msg.Kind(k)
		switch kind {
		case msg.ReadReq, msg.ReadMemReply, msg.ReadShReply,
			msg.ReadDirtyFwd, msg.ReadDirtyReply:
			continue
		case msg.ReadNack:
			out[msg.ClassSmallC] += 2 * byKind[k] // nack + retried request
		default:
			out[kind.ClassOf()] += byKind[k]
		}
	}
	return out
}

// Breakdown is the per-core cycle accounting of Figures 7/8: cycles
// executing one instruction (Useful), stalling for cache misses (CacheMiss),
// stalling waiting for a chunk to commit (Commit), and wasted on squashed
// chunks (Squash).
type Breakdown struct {
	Useful    uint64
	CacheMiss uint64
	Commit    uint64
	Squash    uint64
}

// Total returns the sum of all categories.
func (b Breakdown) Total() uint64 { return b.Useful + b.CacheMiss + b.Commit + b.Squash }

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Useful += o.Useful
	b.CacheMiss += o.CacheMiss
	b.Commit += o.Commit
	b.Squash += o.Squash
}

// Attempt records one commit attempt's milestones for the bottleneck-ratio
// computation (§6.4.1): Req is when the commit was initiated (group
// formation starts), Formed is when the group formed (commit authorized),
// Done is when the commit fully completed. Failed attempts have Formed ==
// Done == 0 and Success == false.
type Attempt struct {
	Req, Formed, Done event.Time
	Success           bool
}

// Collector gathers protocol- and core-level events during a run. It is
// single-threaded, like the simulator.
//
// Its JSON form, in sweep checkpoint journals, holds every field that any
// figure reduction reads — including the closed commit attempts behind
// BottleneckRatio — so that a result restored from a journal renders
// byte-identical figure output. No attempt is open once a run completes,
// and the observer hooks are run-scoped, so neither is persisted.
type Collector struct {
	// CommitLat holds the latency (cycles from commit request to commit
	// completion at the processor) of every successful chunk commit.
	CommitLat []uint32 `json:"commit_lat"`
	// DirsTotal and DirsWrite hold, per successful commit, the number of
	// directories accessed and how many of them recorded writes.
	DirsTotal []uint8 `json:"dirs_total"`
	DirsWrite []uint8 `json:"dirs_write"`

	// Attempts records every commit attempt, in start order.
	Attempts []Attempt `json:"attempts"`
	// open[proc] indexes proc's open attempts in Attempts.
	open [][]openAttempt

	// QueueSamples holds the machine-wide count of chunks queued waiting to
	// commit, sampled at each new group formation (§6.4.2).
	QueueSamples []int `json:"queue_samples"`

	// Squash accounting (§6.1).
	SquashTrueConflict uint64 `json:"squash_true_conflict"`
	SquashAliasing     uint64 `json:"squash_aliasing"`

	// ChunksCommitted counts successful commits.
	ChunksCommitted uint64 `json:"chunks_committed"`
	// CommitFailures counts failed commit attempts (retries).
	CommitFailures uint64 `json:"commit_failures"`
	// ReadNacks counts loads bounced by directories (§3.1).
	ReadNacks uint64 `json:"read_nacks"`

	// Trace, when non-nil, mirrors every commit attempt as a structured
	// KCommit span (begin at CommitStarted, formed instant, end at
	// CommitEnded). Because all four protocols report their milestones
	// here, this one hook gives them a uniform lifecycle trace.
	Trace *trace.Tracer `json:"-"`
}

// openAttempt is one open attempt of a processor: its chunk, its try and
// its index in attempts.
type openAttempt struct {
	seq uint64
	try int
	idx int
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// findOpen returns the position of proc's open attempt (seq, try) in
// c.open[proc], or -1.
func (c *Collector) findOpen(proc int, seq uint64, try int) int {
	if proc >= len(c.open) {
		return -1
	}
	for i, o := range c.open[proc] {
		if o.seq == seq && o.try == try {
			return i
		}
	}
	return -1
}

// CommitStarted records the beginning of a commit attempt (the try index
// distinguishes retries of the same chunk).
func (c *Collector) CommitStarted(proc int, seq uint64, try int, t event.Time) {
	c.Attempts = append(c.Attempts, Attempt{Req: t})
	idx := len(c.Attempts) - 1
	if i := c.findOpen(proc, seq, try); i >= 0 {
		c.open[proc][i].idx = idx // a restarted attempt replaces the open one
	} else {
		for len(c.open) <= proc {
			c.open = append(c.open, nil)
		}
		c.open[proc] = append(c.open[proc], openAttempt{seq, try, idx})
	}
	c.Trace.Span(trace.KCommit, trace.PhaseBegin, proc, false, msg.CTag{Proc: proc, Seq: seq}, try)
}

// GroupFormed records that the attempt's group formed (or, for baselines,
// that the commit was authorized) at time t.
func (c *Collector) GroupFormed(proc int, seq uint64, try int, t event.Time) {
	if i := c.findOpen(proc, seq, try); i >= 0 {
		c.Attempts[c.open[proc][i].idx].Formed = t
	}
	c.Trace.Instant(trace.KGroupFormed, proc, false, msg.CTag{Proc: proc, Seq: seq}, try)
}

// CommitEnded closes an attempt. For successful attempts t is when the
// processor learned the commit completed; lat is recorded into CommitLat by
// the caller via CommitLatency.
func (c *Collector) CommitEnded(proc int, seq uint64, try int, t event.Time, success bool) {
	if i := c.findOpen(proc, seq, try); i >= 0 {
		os := c.open[proc]
		a := &c.Attempts[os[i].idx]
		a.Done = t
		a.Success = success
		c.open[proc] = append(os[:i], os[i+1:]...)
	}
	if success {
		c.ChunksCommitted++
	} else {
		c.CommitFailures++
	}
	c.Trace.Emit(trace.Event{
		Kind: trace.KCommit, Phase: trace.PhaseEnd, Node: proc,
		Tag: msg.CTag{Proc: proc, Seq: seq}, Try: try, OK: success,
	})
}

// CommitLatency records one successful commit's latency in cycles.
func (c *Collector) CommitLatency(cycles event.Time) {
	c.CommitLat = append(c.CommitLat, uint32(cycles))
}

// DirsPerCommit records the group size of one successful commit.
func (c *Collector) DirsPerCommit(total, write int) {
	c.DirsTotal = append(c.DirsTotal, clamp8(total))
	c.DirsWrite = append(c.DirsWrite, clamp8(write))
}

func clamp8(v int) uint8 {
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// SampleQueue records the machine-wide queued-chunk count at a formation.
func (c *Collector) SampleQueue(n int) { c.QueueSamples = append(c.QueueSamples, n) }

// Squashed classifies one squash as a true data conflict or signature
// aliasing.
func (c *Collector) Squashed(trueConflict bool) {
	if trueConflict {
		c.SquashTrueConflict++
	} else {
		c.SquashAliasing++
	}
}

// --- Reductions ---

// MeanCommitLatency returns the mean successful-commit latency in cycles.
func (c *Collector) MeanCommitLatency() float64 {
	if len(c.CommitLat) == 0 {
		return 0
	}
	var sum uint64
	for _, v := range c.CommitLat {
		sum += uint64(v)
	}
	return float64(sum) / float64(len(c.CommitLat))
}

// MeanDirsPerCommit returns the average number of directories accessed per
// commit, total and write-recording (Figures 9/10).
func (c *Collector) MeanDirsPerCommit() (total, write float64) {
	if len(c.DirsTotal) == 0 {
		return 0, 0
	}
	var st, sw uint64
	for i := range c.DirsTotal {
		st += uint64(c.DirsTotal[i])
		sw += uint64(c.DirsWrite[i])
	}
	n := float64(len(c.DirsTotal))
	return float64(st) / n, float64(sw) / n
}

// DirsDistribution returns the percentage of commits that accessed exactly
// 0,1,...,max directories, with the final entry covering "more" (Figs 11/12).
func (c *Collector) DirsDistribution(max int) []float64 {
	out := make([]float64, max+2)
	if len(c.DirsTotal) == 0 {
		return out
	}
	for _, d := range c.DirsTotal {
		i := int(d)
		if i > max {
			i = max + 1
		}
		out[i]++
	}
	for i := range out {
		out[i] = out[i] * 100 / float64(len(c.DirsTotal))
	}
	return out
}

// BottleneckRatio computes §6.4.1's metric: at each group formation event,
// the number of chunks in the process of forming groups that will
// eventually succeed, divided by the number of chunks that have formed
// groups and are completing their commit; the per-event ratios are averaged.
func (c *Collector) BottleneckRatio() float64 {
	type ev struct {
		t     event.Time
		kind  int // 0 = start forming, 1 = formed, 2 = done
		order int
	}
	var evs []ev
	for _, a := range c.Attempts {
		if !a.Success || a.Formed == 0 {
			continue // exclude chunks whose formation is later squashed (§6.4.1)
		}
		evs = append(evs, ev{a.Req, 0, len(evs)}, ev{a.Formed, 1, len(evs)}, ev{a.Done, 2, len(evs)})
	}
	if len(evs) == 0 {
		return 0
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		if evs[i].kind != evs[j].kind {
			// At a tie, respect causality within an attempt: it starts
			// forming, forms, then completes — otherwise a zero-duration
			// commit decrements the committing count before incrementing
			// it and the ratio divides by zero.
			return evs[i].kind < evs[j].kind
		}
		return evs[i].order < evs[j].order
	})

	forming, committing := 0, 0
	var sum float64
	n := 0
	for _, e := range evs {
		switch e.kind {
		case 0:
			forming++
		case 1:
			// "This ratio is sampled every time that a new group is
			// formed" — the new group counts as committing, not forming.
			forming--
			committing++
			sum += float64(forming) / float64(committing)
			n++
		case 2:
			committing--
		}
	}
	return sum / float64(n)
}

// MeanQueueLength returns the average sampled chunk queue length (§6.4.2).
func (c *Collector) MeanQueueLength() float64 {
	if len(c.QueueSamples) == 0 {
		return 0
	}
	sum := 0
	for _, v := range c.QueueSamples {
		sum += v
	}
	return float64(sum) / float64(len(c.QueueSamples))
}
