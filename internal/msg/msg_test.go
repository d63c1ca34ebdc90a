package msg

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"scalablebulk/internal/bitset"
	"scalablebulk/internal/sig"
)

// TestMessageTable1Complete checks that all ten ScalableBulk message types of
// Table 1 exist, with the paper's names.
func TestMessageTable1Complete(t *testing.T) {
	table1 := map[Kind]string{
		CommitRequest: "commit_request",
		Grab:          "g",
		GFailure:      "g_failure",
		GSuccess:      "g_success",
		CommitFailure: "commit_failure",
		CommitSuccess: "commit_success",
		BulkInv:       "bulk_inv",
		BulkInvAck:    "bulk_inv_ack",
		CommitDone:    "commit_done",
		CommitRecall:  "commit_recall",
	}
	if len(table1) != 10 {
		t.Fatalf("Table 1 has ten message types, got %d", len(table1))
	}
	for k, name := range table1 {
		if k.String() != name {
			t.Errorf("kind %d = %q, want %q", int(k), k.String(), name)
		}
	}
}

// TestKindFactsPinned pins every kind's name, consuming side, traffic
// class, size and read-path flag, in Kind order, so that editing the kind
// table cannot silently re-route, re-size or re-classify a message.
func TestKindFactsPinned(t *testing.T) {
	want := []struct {
		name     string
		side     Side
		class    Class
		flits    int
		readPath bool
	}{
		{"commit_request", SideDir, ClassLargeC, 17, false},
		{"g", SideDir, ClassSmallC, 1, false},
		{"g_failure", SideDir, ClassSmallC, 1, false},
		{"g_success", SideDir, ClassSmallC, 1, false},
		{"commit_failure", SideProc, ClassSmallC, 1, false},
		{"commit_success", SideProc, ClassSmallC, 1, false},
		{"bulk_inv", SideProc, ClassLargeC, 9, false},
		{"bulk_inv_ack", SideDir, ClassSmallC, 1, false},
		{"commit_done", SideDir, ClassSmallC, 1, false},
		{"commit_recall", SideDir, ClassSmallC, 1, false},
		{"read_req", SideDir, ClassMemRd, 1, true},
		{"read_mem_reply", SideProc, ClassMemRd, 3, true},
		{"read_sh_reply", SideProc, ClassRemoteShRd, 3, true},
		{"read_dirty_fwd", SideDir, ClassRemoteDirtyRd, 1, true},
		{"read_dirty_reply", SideProc, ClassRemoteDirtyRd, 3, true},
		{"read_nack", SideProc, ClassMemRd, 1, true},
		{"tid_request", SideDir, ClassSmallC, 1, false},
		{"tid_reply", SideProc, ClassSmallC, 1, false},
		{"tcc_probe", SideDir, ClassSmallC, 1, false},
		{"tcc_probe_ack", SideProc, ClassSmallC, 1, false},
		{"tcc_skip", SideDir, ClassSmallC, 1, false},
		{"tcc_commit", SideDir, ClassSmallC, 1, false},
		{"tcc_mark", SideDir, ClassSmallC, 1, false},
		{"tcc_inval", SideProc, ClassSmallC, 1, false},
		{"tcc_inval_ack", SideDir, ClassSmallC, 1, false},
		{"tcc_ack", SideProc, ClassSmallC, 1, false},
		{"seq_occupy", SideDir, ClassSmallC, 1, false},
		{"seq_grant", SideProc, ClassSmallC, 1, false},
		{"seq_inval", SideProc, ClassLargeC, 9, false},
		{"seq_inval_ack", SideProc, ClassSmallC, 1, false},
		{"seq_release", SideDir, ClassSmallC, 1, false},
		{"arb_request", SideDir, ClassLargeC, 17, false},
		{"arb_grant", SideProc, ClassSmallC, 1, false},
		{"arb_deny", SideProc, ClassSmallC, 1, false},
		{"arb_inv", SideProc, ClassLargeC, 9, false},
		{"arb_inv_ack", SideProc, ClassSmallC, 1, false},
		{"arb_done", SideDir, ClassSmallC, 1, false},
	}
	if len(want) != NumKinds {
		t.Fatalf("pinned %d kinds, NumKinds = %d", len(want), NumKinds)
	}
	for i, w := range want {
		k := Kind(i)
		if k.String() != w.name || k.SideOf() != w.side || k.ClassOf() != w.class ||
			k.FlitsOf() != w.flits || k.ReadPath() != w.readPath {
			t.Errorf("kind %d = (%s, %d, %s, %d, %v), want (%s, %d, %s, %d, %v)", i,
				k, k.SideOf(), k.ClassOf(), k.FlitsOf(), k.ReadPath(),
				w.name, w.side, w.class, w.flits, w.readPath)
		}
	}
	for _, k := range []Kind{numKinds, numKinds + 5} {
		if want := fmt.Sprintf("kind(%d)", int(k)); k.String() != want {
			t.Errorf("out-of-range kind prints %q, want %q", k.String(), want)
		}
	}
}

func TestEveryKindNamed(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}

// TestSignatureCarryingMessagesAreLarge encodes §6.5: "in ScalableBulk, the
// LargeCMessage are those that carry signatures, namely commit_request and
// bulk_inv; SmallCMessage are the rest of the messages in Table 1."
func TestSignatureCarryingMessagesAreLarge(t *testing.T) {
	large := map[Kind]bool{CommitRequest: true, BulkInv: true}
	table1 := []Kind{CommitRequest, Grab, GFailure, GSuccess, CommitFailure,
		CommitSuccess, BulkInv, BulkInvAck, CommitDone, CommitRecall}
	for _, k := range table1 {
		want := ClassSmallC
		if large[k] {
			want = ClassLargeC
		}
		if got := k.ClassOf(); got != want {
			t.Errorf("%s class = %s, want %s", k, got, want)
		}
	}
}

func TestReadClassMapping(t *testing.T) {
	cases := map[Kind]Class{
		ReadMemReply:   ClassMemRd,
		ReadShReply:    ClassRemoteShRd,
		ReadDirtyFwd:   ClassRemoteDirtyRd,
		ReadDirtyReply: ClassRemoteDirtyRd,
	}
	for k, want := range cases {
		if got := k.ClassOf(); got != want {
			t.Errorf("%s class = %s, want %s", k, got, want)
		}
	}
}

func TestFlitSizes(t *testing.T) {
	if CommitRequest.FlitsOf() <= BulkInv.FlitsOf() {
		t.Error("commit_request carries two signatures, must exceed bulk_inv")
	}
	if BulkInv.FlitsOf() <= Grab.FlitsOf() {
		t.Error("bulk_inv carries a signature, must exceed g")
	}
	if Grab.FlitsOf() != SmallFlits {
		t.Errorf("g is a small message, got %d flits", Grab.FlitsOf())
	}
}

func TestCTagString(t *testing.T) {
	tag := CTag{Proc: 3, Seq: 17}
	if tag.String() != "P3.17" {
		t.Fatalf("CTag.String = %q", tag.String())
	}
	m := &Msg{Kind: Grab, Src: 1, Dst: 2, Tag: tag}
	if !strings.Contains(m.String(), "g 1→2 P3.17") {
		t.Fatalf("Msg.String = %q", m.String())
	}
}

func TestSideRouting(t *testing.T) {
	procSide := []Kind{CommitSuccess, CommitFailure, BulkInv, ReadMemReply,
		ReadNack, TIDReply, TCCInval, SeqGrant, SeqInval, ArbGrant, ArbInv}
	dirSide := []Kind{CommitRequest, Grab, GFailure, GSuccess, BulkInvAck,
		CommitDone, ReadReq, TIDRequest, TCCProbe, TCCSkip, TCCMark,
		SeqOccupy, SeqRelease, ArbRequest, ArbDone, ReadDirtyFwd}
	for _, k := range procSide {
		if k.SideOf() != SideProc {
			t.Errorf("%s routed to dir, want proc", k)
		}
	}
	for _, k := range dirSide {
		if k.SideOf() != SideDir {
			t.Errorf("%s routed to proc, want dir", k)
		}
	}
}

func TestBaselineInvalidationsCarrySignatures(t *testing.T) {
	// BulkSC and SEQ invalidations carry W signatures (large); Scalable TCC
	// invalidates per line (small) — the root of its small-message traffic.
	if ArbInv.ClassOf() != ClassLargeC || SeqInval.ClassOf() != ClassLargeC {
		t.Error("signature invalidations must be LargeCMessage")
	}
	if TCCInval.ClassOf() != ClassSmallC || TCCMark.ClassOf() != ClassSmallC ||
		TCCSkip.ClassOf() != ClassSmallC || TCCProbe.ClassOf() != ClassSmallC {
		t.Error("TCC per-line commit messages must be SmallCMessage")
	}
}

func TestClassNames(t *testing.T) {
	want := []string{"MemRd", "RemoteShRd", "RemoteDirtyRd", "LargeCMessage", "SmallCMessage"}
	for i, w := range want {
		if Class(i).String() != w {
			t.Errorf("class %d = %q, want %q", i, Class(i).String(), w)
		}
	}
}

// TestCloneDeepCopies verifies the duplicator contract: a clone shares no
// mutable payload with the original, and shares the immutable signatures.
func TestCloneDeepCopies(t *testing.T) {
	var iv bitset.Set
	iv.Add(3)
	var r, w sig.Sig
	r.Insert(30)
	w.Insert(10)
	m := &Msg{
		Kind: Grab, Src: 1, Dst: 2, Tag: CTag{Proc: 3, Seq: 17},
		RSig: &r, WSig: &w,
		GVec:     []int{2, 5, 9},
		InvalVec: iv,
		Recall: &RecallInfo{
			Tag: CTag{Proc: 4, Seq: 8}, Try: 2, GVec: []int{1, 7},
		},
		WriteLines: []sig.Line{10, 20},
		ReadLines:  []sig.Line{30},
		TID:        6,
	}
	c := m.Clone()

	if c.Kind != m.Kind || c.Tag != m.Tag || c.TID != m.TID {
		t.Fatal("clone does not copy scalar fields")
	}
	if c.RSig != m.RSig || c.WSig != m.WSig {
		t.Fatal("clone must share the signature snapshots, not copy them")
	}
	c.GVec[0] = -1
	c.InvalVec.Add(60)
	c.Recall.Try = 99
	c.Recall.GVec[0] = -1
	c.WriteLines[0] = 999
	c.ReadLines[0] = 999
	if m.GVec[0] != 2 || m.InvalVec.Has(60) || m.Recall.Try != 2 ||
		m.Recall.GVec[0] != 1 || m.WriteLines[0] != 10 || m.ReadLines[0] != 30 {
		t.Fatal("mutating the clone leaked into the original")
	}

	// Nil payloads clone to nil (no gratuitous allocation).
	n := (&Msg{Kind: CommitDone}).Clone()
	if n.GVec != nil || n.Recall != nil || n.WriteLines != nil || n.ReadLines != nil ||
		n.RSig != nil || n.WSig != nil {
		t.Fatal("nil payloads must stay nil")
	}
}

// TestSigAccessors: nil signature fields read as the empty signature, set
// ones read as themselves, and reading never writes the shared empty value.
func TestSigAccessors(t *testing.T) {
	var m Msg
	if !m.R().Empty() || !m.W().Empty() {
		t.Fatal("nil signatures must read as empty")
	}
	if m.R() != m.W() {
		t.Fatal("nil signatures must share one empty value")
	}
	var w sig.Sig
	w.Insert(5)
	m.WSig = &w
	if m.W() != &w || !m.W().Member(5) || !m.R().Empty() {
		t.Fatal("set signature not returned as carried")
	}
}

// TestMsgIsSlim guards the message size: signatures travel by pointer, so
// a message is a few scalars and slice headers, not two 256-byte values.
func TestMsgIsSlim(t *testing.T) {
	if sz := unsafe.Sizeof(Msg{}); sz > 192 {
		t.Fatalf("msg.Msg is %d bytes, want <= 192", sz)
	}
}
