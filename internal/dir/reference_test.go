package dir

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scalablebulk/internal/bitset"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/sig"
)

// refDir is the plain-map directory and first-touch page table the
// page-slab State and the hashed Mapper replaced, kept as the reference
// their every answer is compared against. Its maps are keyed by the line's
// and the page's bits.
type refDir struct {
	lines map[uint64]*refLine
	homes map[uint64]int
	dirs  int
}

type refLine struct {
	sharers map[int]bool
	owner   int
	dirty   bool
}

func newRefDir(dirs int) *refDir {
	return &refDir{lines: map[uint64]*refLine{}, homes: map[uint64]int{}, dirs: dirs}
}

func (r *refDir) touch(l sig.Line) *refLine {
	if rl, ok := r.lines[uint64(l)]; ok {
		return rl
	}
	rl := &refLine{sharers: map[int]bool{}, owner: -1}
	r.lines[uint64(l)] = rl
	return rl
}

func (r *refDir) home(l sig.Line, toucher int) int {
	if h, ok := r.homes[uint64(mem.PageOf(l))]; ok {
		return h
	}
	r.homes[uint64(mem.PageOf(l))] = toucher % r.dirs
	return toucher % r.dirs
}

func (r *refDir) applyCommitWrite(l sig.Line, writer int) {
	rl := r.touch(l)
	rl.sharers = map[int]bool{writer: true}
	rl.owner, rl.dirty = writer, true
}

// sharersOf gathers the sharers of lines, minus exclude; home < 0 matches
// every line, and otherwise only lines mapped to home.
func (r *refDir) sharersOf(lines []sig.Line, home, exclude int) []int {
	var out []int
	for _, l := range lines {
		if h, ok := r.homes[uint64(mem.PageOf(l))]; home >= 0 && (!ok || h != home) {
			continue
		}
		if rl := r.lines[uint64(l)]; rl != nil {
			for p := range rl.sharers {
				if p != exclude {
					out = append(out, p)
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func (r *refDir) clean() bool {
	for _, rl := range r.lines {
		if rl.dirty || rl.owner != -1 {
			return false
		}
	}
	return true
}

// same reports whether li is the reference entry rl.
func same(li *LineInfo, rl *refLine) bool {
	if li == nil || rl == nil {
		return li == nil && rl == nil
	}
	if li.Owner != rl.owner || li.Dirty != rl.dirty || li.Sharers.Count() != len(rl.sharers) {
		return false
	}
	for p := range rl.sharers {
		if !li.Sharers.Has(p) {
			return false
		}
	}
	return true
}

// TestMatchesReference runs seeded random sequences of every directory and
// page-table operation against the plain-map reference: lines on dense low
// pages, on pages at and above 2⁴⁰ and anywhere in the 64-bit line space;
// sharer ids up to 1023; and a Snapshot→Restore round trip whenever the
// directory is clean, after which the restored copies carry on. Commit
// writes start two thirds of the way in: no operation cleans a dirty line,
// so only the first two thirds can snapshot.
func TestMatchesReference(t *testing.T) {
	const cores = 1024
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, m, ref := NewState(cores), mem.NewMapper(cores), newRefDir(cores)
		line := func() sig.Line {
			switch r.Intn(4) {
			case 0, 1:
				return sig.Line(r.Intn(64 * mem.LinesPerPage)) // 64 dense pages
			case 2:
				return sig.Line(1<<40+r.Intn(64))*mem.LinesPerPage + sig.Line(r.Intn(mem.LinesPerPage))
			default:
				return sig.Line(r.Uint64())
			}
		}
		lineList := func() []sig.Line {
			ls := make([]sig.Line, r.Intn(12))
			for i := range ls {
				ls[i] = line()
			}
			if r.Intn(2) == 0 {
				slices.Sort(ls) // commit write sets are sorted
			}
			return ls
		}
		restores := 0
		for op := 0; op < 6000; op++ {
			l := line()
			switch r.Intn(10) {
			case 0:
				if got := s.Touch(l); !same(got, ref.touch(l)) {
					t.Fatalf("seed %d op %d: Touch(%#x) = %+v", seed, op, l, got)
				}
			case 1:
				if got := s.Get(l); !same(got, ref.lines[uint64(l)]) {
					t.Fatalf("seed %d op %d: Get(%#x) = %+v, want %+v", seed, op, l, got, ref.lines[uint64(l)])
				}
			case 2, 3:
				p := r.Intn(cores)
				s.AddSharer(l, p)
				ref.touch(l).sharers[p] = true
			case 4:
				if op >= 4000 { // the first two thirds stay clean, so Snapshot→Restore runs
					w := r.Intn(cores)
					s.ApplyCommitWrite(l, w)
					ref.applyCommitWrite(l, w)
				}
			case 5:
				ls, home, ex := lineList(), r.Intn(cores), r.Intn(cores)
				if r.Intn(2) == 0 {
					ls = append(ls, l)
					home = ref.home(l, home)
					m.Home(l, home)
				}
				var dst bitset.Set
				s.SharersOf(ls, home, m, ex, &dst)
				if got, want := dst.Members(), ref.sharersOf(ls, home, ex); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: SharersOf(%#x, %d, ex %d) = %v, want %v", seed, op, ls, home, ex, got, want)
				}
			case 6:
				ls, ex := lineList(), r.Intn(cores)
				var dst bitset.Set
				s.SharersOfAll(ls, ex, &dst)
				if got, want := dst.Members(), ref.sharersOf(ls, -1, ex); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: SharersOfAll(%#x, ex %d) = %v, want %v", seed, op, ls, ex, got, want)
				}
			case 7:
				toucher := r.Intn(4 * cores)
				if got, want := m.Home(l, toucher), ref.home(l, toucher); got != want {
					t.Fatalf("seed %d op %d: Home(%#x, %d) = %d, want %d", seed, op, l, toucher, got, want)
				}
			case 8:
				want, wok := ref.homes[uint64(mem.PageOf(l))]
				if got, ok := m.HomeIfMapped(l); ok != wok || got != want {
					t.Fatalf("seed %d op %d: HomeIfMapped(%#x) = %d,%v, want %d,%v", seed, op, l, got, ok, want, wok)
				}
			case 9:
				if r.Intn(4) != 0 {
					continue
				}
				im := s.Snapshot()
				if (im != nil) != ref.clean() {
					t.Fatalf("seed %d op %d: Snapshot() = %v with the reference clean=%v", seed, op, im != nil, ref.clean())
				}
				if im == nil {
					continue
				}
				pim := m.Snapshot()
				s, m = NewState(cores), mem.NewMapper(cores)
				s.Restore(im)
				m.Restore(pim)
				if !reflect.DeepEqual(s.Snapshot(), im) || !reflect.DeepEqual(m.Snapshot(), pim) {
					t.Fatalf("seed %d op %d: a restored state encodes to another image", seed, op)
				}
				restores++
			}
		}
		if restores == 0 {
			t.Fatalf("seed %d: no Snapshot→Restore round trip ran", seed)
		}
		for l, rl := range ref.lines {
			if !same(s.Get(sig.Line(l)), rl) {
				t.Fatalf("seed %d: line %#x ends as %+v", seed, l, s.Get(sig.Line(l)))
			}
		}
		if m.MappedPages() != len(ref.homes) {
			t.Fatalf("seed %d: %d mapped pages, want %d", seed, m.MappedPages(), len(ref.homes))
		}
	}
}

// TestEntryStaysPut: a *LineInfo handed out once is the line's entry for
// good, through ten thousand further Touches on other pages and lines.
func TestEntryStaysPut(t *testing.T) {
	s := NewState(64)
	li := s.Touch(1 << 47)
	li.Sharers.Add(7)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		s.Touch(sig.Line(r.Uint64()))
		s.AddSharer(sig.Line(i), i%64)
	}
	li.Sharers.Add(9)
	if got := s.Get(1 << 47); got != li || !got.Sharers.Has(7) || !got.Sharers.Has(9) {
		t.Fatalf("entry moved: Get = %p %s, held %p", got, got.Sharers.String(), li)
	}
}
