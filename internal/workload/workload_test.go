package workload

import (
	"testing"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/mem"
)

func TestDeterministicRegeneration(t *testing.T) {
	w := New(Splash2()[0], 8, 42)
	a := w.NextChunk(3, 7)
	b := w.NextChunk(3, 7)
	if len(a.Accesses) != len(b.Accesses) {
		t.Fatal("regenerated chunk differs in length")
	}
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			t.Fatalf("access %d differs: %v vs %v", i, a.Accesses[i], b.Accesses[i])
		}
	}
}

func TestChunksDifferAcrossSeqAndProc(t *testing.T) {
	w := New(Splash2()[0], 8, 42)
	a := w.NextChunk(0, 1)
	b := w.NextChunk(0, 2)
	c := w.NextChunk(1, 1)
	same := func(x, y *chunk.Chunk) bool {
		if len(x.Accesses) != len(y.Accesses) {
			return false
		}
		for i := range x.Accesses {
			if x.Accesses[i] != y.Accesses[i] {
				return false
			}
		}
		return true
	}
	if same(a, b) || same(a, c) {
		t.Fatal("distinct chunks produced identical footprints")
	}
}

func TestPrivateRegionsDisjoint(t *testing.T) {
	w := New(Splash2()[6], 16, 1) // LU: mostly private
	seen := map[mem.Page]int{}
	for p := 0; p < 16; p++ {
		for s := uint64(0); s < 10; s++ {
			ck := w.NextChunk(p, s)
			for _, a := range ck.Accesses {
				pg := mem.PageOf(a.Line)
				if pg >= sharedBasePage && pg < privateBasePage {
					continue // shared region
				}
				if owner, ok := seen[pg]; ok && owner != p {
					t.Fatalf("private page %d touched by both %d and %d", pg, owner, p)
				}
				seen[pg] = p
			}
		}
	}
}

func TestAccessCountsAndChunkSize(t *testing.T) {
	for _, prof := range All() {
		w := New(prof, 64, 9)
		ck := w.NextChunk(5, 3)
		if ck.Instr != 2000 {
			t.Errorf("%s: chunk size %d, want 2000 (Table 2)", prof.Name, ck.Instr)
		}
		if len(ck.Accesses) < prof.Accesses || len(ck.Accesses) > prof.Accesses+1 {
			t.Errorf("%s: %d accesses, want ~%d", prof.Name, len(ck.Accesses), prof.Accesses)
		}
	}
}

// TestWarmupChunkAllocs holds warm-up generation to three allocations per
// chunk (the chunk, its access slice and the shared-page pool): the access
// slice is sized up front, never grown. The length check keeps that size
// justified: no chunk outgrows p.Accesses+1.
func TestWarmupChunkAllocs(t *testing.T) {
	for _, prof := range All() {
		w := New(prof, 64, 9)
		for i := 0; i < 20; i++ {
			for _, ck := range []*chunk.Chunk{w.WarmupChunk(i%64, i), w.NextChunk(i%64, uint64(i))} {
				if len(ck.Accesses) > prof.Accesses+1 {
					t.Fatalf("%s: %d accesses, capacity sized for %d", prof.Name, len(ck.Accesses), prof.Accesses+1)
				}
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			w.WarmupChunk(i%64, i)
			i++
		})
		if allocs > 3 {
			t.Errorf("%s: %.0f allocations per warm-up chunk, want ≤ 3", prof.Name, allocs)
		}
	}
}

func TestEighteenApplications(t *testing.T) {
	if len(Splash2()) != 11 {
		t.Fatalf("SPLASH-2 apps = %d, want 11 (§5)", len(Splash2()))
	}
	if len(Parsec()) != 7 {
		t.Fatalf("PARSEC apps = %d, want 7 (§5)", len(Parsec()))
	}
	names := map[string]bool{}
	for _, p := range All() {
		if names[p.Name] {
			t.Fatalf("duplicate profile %s", p.Name)
		}
		names[p.Name] = true
	}
	if _, ok := ByName("Radix"); !ok {
		t.Fatal("ByName failed for Radix")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName invented an app")
	}
}

func TestRadixScattersWrites(t *testing.T) {
	radix, _ := ByName("Radix")
	lu, _ := ByName("LU")
	wr := New(radix, 64, 3)
	wl := New(lu, 64, 3)
	pagesOf := func(w *Workload) int {
		pages := map[mem.Page]bool{}
		for s := uint64(0); s < 20; s++ {
			ck := w.NextChunk(0, s)
			for _, a := range ck.Accesses {
				if a.Write {
					pages[mem.PageOf(a.Line)] = true
				}
			}
		}
		return len(pages) / 20
	}
	if pagesOf(wr) <= 2*pagesOf(wl) {
		t.Fatalf("Radix write dispersion (%d pages/chunk) not ≫ LU (%d)", pagesOf(wr), pagesOf(wl))
	}
}

func TestWorkingSetScalesWithThreads(t *testing.T) {
	ocean, _ := ByName("Ocean")
	one := New(ocean, 1, 1)
	many := New(ocean, 64, 1)
	if one.PagesPerThread() <= many.PagesPerThread() {
		t.Fatal("single-thread run must carry the whole working set (superlinear effect)")
	}
}

// TestProfiles: the model checker's micro-workloads resolve by name, stay
// out of the application list every sweep iterates, and force what they
// claim.
func TestProfiles(t *testing.T) {
	for _, p := range All() {
		if p.Suite == "CHECK" {
			t.Errorf("All lists the checking workload %s", p.Name)
		}
	}
	conflict, ok := ByName("MCConflict")
	if !ok || conflict.ConflictFrac != 1 {
		t.Fatalf("MCConflict missing or not forcing conflicts: %+v", conflict)
	}
	free, ok := ByName("MCFree")
	if !ok || free.SharedFrac != 0 {
		t.Fatalf("MCFree missing or sharing lines: %+v", free)
	}
}
