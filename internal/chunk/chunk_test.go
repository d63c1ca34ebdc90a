package chunk

import (
	"testing"

	"scalablebulk/internal/mem"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
)

func mkChunk(accs []Access) *Chunk {
	c := &Chunk{Tag: msg.CTag{Proc: 0, Seq: 1}, Instr: 2000, Accesses: accs}
	c.Finalize(func(l sig.Line) int { return int(mem.PageOf(l)) }) // one dir per page
	return c
}

func TestFinalizeSetsAndDirs(t *testing.T) {
	c := mkChunk([]Access{
		{Line: 10, Write: false},
		{Line: 10 + mem.LinesPerPage, Write: true},
		{Line: 10 + 2*mem.LinesPerPage, Write: false},
		{Line: 10, Write: false}, // duplicate read
	})
	if len(c.ReadLines) != 2 || len(c.WriteLines) != 1 {
		t.Fatalf("reads=%v writes=%v", c.ReadLines, c.WriteLines)
	}
	wantDirs := []int{0, 1, 2}
	if len(c.Dirs) != 3 {
		t.Fatalf("Dirs = %v, want %v", c.Dirs, wantDirs)
	}
	for i, d := range wantDirs {
		if c.Dirs[i] != d {
			t.Fatalf("Dirs = %v, want %v", c.Dirs, wantDirs)
		}
	}
	if len(c.WriteDirs) != 1 || c.WriteDirs[0] != 1 {
		t.Fatalf("WriteDirs = %v, want [1]", c.WriteDirs)
	}
	if c.ReadOnlyDirs() != 2 {
		t.Fatalf("ReadOnlyDirs = %d, want 2", c.ReadOnlyDirs())
	}
}

func TestWriteSubsumesRead(t *testing.T) {
	c := mkChunk([]Access{
		{Line: 5, Write: false},
		{Line: 5, Write: true},
	})
	if len(c.WriteLines) != 1 || len(c.ReadLines) != 0 {
		t.Fatalf("read-then-write line must live only in write set: R=%v W=%v",
			c.ReadLines, c.WriteLines)
	}
	if !c.WSig.Member(5) {
		t.Fatal("written line missing from W signature")
	}
}

func TestConflictDetection(t *testing.T) {
	reader := mkChunk([]Access{{Line: 50, Write: false}})
	writer := mkChunk([]Access{{Line: 50, Write: true}})
	other := mkChunk([]Access{{Line: 9000, Write: true}})

	if !reader.ConflictsWith(&writer.WSig) {
		t.Fatal("read-write conflict missed")
	}
	if reader.ConflictsWith(&other.WSig) {
		t.Fatal("false conflict between disjoint local footprints")
	}
	// Write-write conflicts too.
	w2 := mkChunk([]Access{{Line: 50, Write: true}})
	if !w2.ConflictsWith(&writer.WSig) {
		t.Fatal("write-write conflict missed")
	}
}

func TestTrueConflictClassification(t *testing.T) {
	c := mkChunk([]Access{{Line: 7, Write: false}, {Line: 8, Write: true}})
	if !c.TrulyConflictsWith([]sig.Line{7}) {
		t.Fatal("true read conflict missed")
	}
	if !c.TrulyConflictsWith([]sig.Line{8}) {
		t.Fatal("true write conflict missed")
	}
	if c.TrulyConflictsWith([]sig.Line{9999}) {
		t.Fatal("phantom true conflict")
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	c := mkChunk([]Access{{Line: 1, Write: true}, {Line: 201, Write: false}})
	d1 := append([]int(nil), c.Dirs...)
	c.Finalize(func(l sig.Line) int { return int(mem.PageOf(l)) })
	if len(c.Dirs) != len(d1) {
		t.Fatalf("Finalize not idempotent: %v vs %v", c.Dirs, d1)
	}
	if len(c.WriteLines) != 1 || len(c.ReadLines) != 1 {
		t.Fatal("line sets duplicated on re-finalize")
	}
}
