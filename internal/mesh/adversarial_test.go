package mesh

import (
	"testing"

	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
)

// scriptInterposer is a hand-written Interposer for adversarial-delivery
// tests: it rewrites each delivery through fn.
type scriptInterposer struct {
	fn func(m *msg.Msg, at event.Time) []Delivery
}

func (s *scriptInterposer) Plan(m *msg.Msg, now, at event.Time) []Delivery {
	return s.fn(m, at)
}

// TestInterposerReordersAtNode: an interposer that inflates the delay of
// every other message inverts the arrival order of back-to-back sends at a
// single destination, and the handler observes the inversion.
func TestInterposerReordersAtNode(t *testing.T) {
	eng, n := newNet(t, 16, false)
	i := 0
	n.Fault = &scriptInterposer{fn: func(m *msg.Msg, at event.Time) []Delivery {
		i++
		if i%2 == 1 {
			return []Delivery{{At: at + 500, M: m}}
		}
		return []Delivery{{At: at, M: m}}
	}}
	var got []uint64
	n.Register(5, func(m *msg.Msg) { got = append(got, m.Tag.Seq) })
	for s := uint64(1); s <= 4; s++ {
		n.Send(msg.Msg{Kind: msg.Grab, Src: 0, Dst: 5, Tag: msg.CTag{Seq: s}})
	}
	eng.Run()
	if len(got) != 4 {
		t.Fatalf("delivered %d messages, want 4", len(got))
	}
	// Odd sends (1,3) were delayed past even sends (2,4).
	want := []uint64{2, 4, 1, 3}
	for i, s := range want {
		if got[i] != s {
			t.Fatalf("arrival order %v, want %v", got, want)
		}
	}
}

// TestInterposerDuplicatesAtNode: a duplicating interposer delivers each
// message twice, the Delivered counter counts both, and Messages counts one.
func TestInterposerDuplicatesAtNode(t *testing.T) {
	eng, n := newNet(t, 16, false)
	n.Fault = &scriptInterposer{fn: func(m *msg.Msg, at event.Time) []Delivery {
		return []Delivery{{At: at, M: m}, {At: at + 9, M: m.Clone()}}
	}}
	seen := 0
	n.Register(3, func(m *msg.Msg) { seen++ })
	for s := 0; s < 5; s++ {
		n.Send(msg.Msg{Kind: msg.CommitDone, Src: 1, Dst: 3, Tag: msg.CTag{Seq: uint64(s)}})
	}
	eng.Run()
	if seen != 10 {
		t.Fatalf("handler saw %d deliveries, want 10", seen)
	}
	st := n.Stats()
	if st.Messages != 5 {
		t.Fatalf("Messages = %d, want 5 (duplication is not a send)", st.Messages)
	}
	if st.Delivered != 10 {
		t.Fatalf("Delivered = %d, want 10", st.Delivered)
	}
}

// TestPerClassAccountingTotals: ByKind totals bucket into the five traffic
// classes exactly as injected, and sum to Messages.
func TestPerClassAccountingTotals(t *testing.T) {
	eng, n := newNet(t, 16, false)
	for i := 0; i < 16; i++ {
		n.Register(i, func(m *msg.Msg) {})
	}
	inject := map[msg.Kind]int{
		msg.CommitRequest: 4, // LargeC
		msg.BulkInv:       3, // LargeC
		msg.Grab:          5, // SmallC
		msg.CommitDone:    2, // SmallC
		msg.ReadShReply:   6, // RemoteShRd
	}
	for k, count := range inject {
		for i := 0; i < count; i++ {
			n.Send(msg.Msg{Kind: k, Src: i % 4, Dst: 8 + i%4})
		}
	}
	eng.Run()
	st := n.Stats()
	var total uint64
	for _, c := range st.ByKind {
		total += c
	}
	if total != st.Messages || st.Messages != 20 {
		t.Fatalf("ByKind sums to %d, Messages = %d, want 20", total, st.Messages)
	}
	var byClass [msg.NumClasses]uint64
	for k, c := range st.ByKind {
		byClass[msg.Kind(k).ClassOf()] += c
	}
	if byClass[msg.ClassLargeC] != 7 {
		t.Fatalf("LargeC = %d, want 7", byClass[msg.ClassLargeC])
	}
	if byClass[msg.ClassSmallC] != 7 {
		t.Fatalf("SmallC = %d, want 7", byClass[msg.ClassSmallC])
	}
	if byClass[msg.ClassRemoteShRd] != 6 {
		t.Fatalf("RemoteShRd = %d, want 6", byClass[msg.ClassRemoteShRd])
	}
}

// TestNilFaultZeroCost: with no interposer installed the delivery schedule is
// identical to a network that never had the field (guard against the hook
// perturbing the fault-free path).
func TestNilFaultZeroCost(t *testing.T) {
	run := func(install bool) []event.Time {
		eng, n := newNet(t, 16, true)
		if install {
			n.Fault = &scriptInterposer{fn: func(m *msg.Msg, at event.Time) []Delivery {
				return []Delivery{{At: at, M: m}}
			}}
		}
		var at []event.Time
		n.Register(9, func(m *msg.Msg) { at = append(at, eng.Now()) })
		for s := 0; s < 10; s++ {
			n.Send(msg.Msg{Kind: msg.CommitRequest, Src: s % 3, Dst: 9, Tag: msg.CTag{Seq: uint64(s)}})
		}
		eng.Run()
		return at
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatal("pass-through interposer changed delivery count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pass-through interposer changed delivery %d: %d vs %d", i, a[i], b[i])
		}
	}
}
