package mem

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"scalablebulk/internal/sig"
)

func TestPageOf(t *testing.T) {
	if PageOf(0) != 0 || PageOf(127) != 0 {
		t.Fatal("lines 0..127 must share page 0")
	}
	if PageOf(128) != 1 {
		t.Fatalf("line 128 in page %d, want 1", PageOf(128))
	}
}

func TestLineOfAddr(t *testing.T) {
	if LineOfAddr(0) != 0 || LineOfAddr(31) != 0 || LineOfAddr(32) != 1 {
		t.Fatal("byte→line conversion wrong")
	}
}

func TestFirstTouchSticky(t *testing.T) {
	m := NewMapper(8)
	l := sig.Line(1000)
	h := m.Home(l, 5)
	if h != 5 {
		t.Fatalf("first touch by 5 assigned home %d", h)
	}
	// Subsequent touches by other nodes do not move the page.
	if got := m.Home(l, 2); got != 5 {
		t.Fatalf("home moved to %d", got)
	}
	// Same page, different line → same home.
	if got := m.Home(l+1, 7); got != 5 {
		t.Fatalf("same-page line got home %d", got)
	}
	// Different page is independent.
	if got := m.Home(l+LinesPerPage, 7); got != 7 {
		t.Fatalf("new page home = %d, want 7", got)
	}
}

func TestHomeIfMapped(t *testing.T) {
	m := NewMapper(4)
	if _, ok := m.HomeIfMapped(50); ok {
		t.Fatal("unmapped page reported mapped")
	}
	m.Home(50, 3)
	d, ok := m.HomeIfMapped(50)
	if !ok || d != 3 {
		t.Fatalf("HomeIfMapped = %d,%v", d, ok)
	}
	if m.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d", m.MappedPages())
	}
}

func TestSingleDirectoryMachine(t *testing.T) {
	m := NewMapper(1)
	for i := 0; i < 100; i++ {
		if m.Home(sig.Line(i*1000), i%7) != 0 {
			t.Fatal("single-dir machine must home everything at 0")
		}
	}
}

// Property: the home of any line is a valid directory and stable across
// repeated touches from arbitrary nodes.
func TestPropertyHomeStable(t *testing.T) {
	m := NewMapper(16)
	f := func(line uint32, t1, t2 uint8) bool {
		l := sig.Line(line)
		h1 := m.Home(l, int(t1)%16)
		h2 := m.Home(l, int(t2)%16)
		return h1 == h2 && h1 >= 0 && h1 < 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPageTable: ids are dense in the order pages are added, any 64-bit page
// fits, and Find agrees with a plain map through many growths.
func TestPageTable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var tab PageTable
	ref := map[uint64]int{} // keyed by the page's bits
	var order []Page
	for i := 0; i < 20000; i++ {
		var p Page
		switch r.Intn(3) {
		case 0:
			p = Page(r.Intn(1 << 12)) // dense, repeating
		case 1:
			p = Page(1<<40 + r.Int63n(1<<20)) // sparse and high
		default:
			p = Page(r.Uint64()) // anywhere
		}
		want, seen := ref[uint64(p)]
		if id, ok := tab.Find(p); ok != seen || (ok && id != want) {
			t.Fatalf("Find(%#x) = %d,%v, want %d,%v", p, id, ok, want, seen)
		}
		id, added := tab.Add(p)
		if added == seen || (seen && id != want) || (!seen && id != len(order)) {
			t.Fatalf("Add(%#x) = %d,%v; seen %v with id %d, %d pages", p, id, added, seen, want, len(order))
		}
		if !seen {
			ref[uint64(p)] = id
			order = append(order, p)
		}
	}
	if tab.Len() != len(order) || !slices.Equal(tab.Pages(), order) {
		t.Fatalf("Pages() not in insertion order (%d pages, want %d)", tab.Len(), len(order))
	}
}

// TestImageRoundTrip: a restored page table assigns the same homes, encodes
// to the same image, keeps first touch for new pages, and rejects a
// different directory count.
func TestImageRoundTrip(t *testing.T) {
	for _, dirs := range []int{1, 64, 256} {
		r := rand.New(rand.NewSource(int64(dirs)))
		m := NewMapper(dirs)
		var lines []sig.Line
		for i := 0; i < 3000; i++ {
			l := sig.Line(r.Intn(1 << 20))
			m.Home(l, r.Intn(4*dirs))
			lines = append(lines, l)
		}
		im := m.Snapshot()
		a := NewMapper(dirs)
		a.Home(1<<30, 0)
		a.Restore(im)
		for _, l := range lines {
			if got, ok := a.HomeIfMapped(l); !ok || got != m.Home(l, 0) {
				t.Fatalf("%d dirs: line %d restored with home %d,%v, want %d", dirs, l, got, ok, m.Home(l, 0))
			}
		}
		if a.MappedPages() != m.MappedPages() || !reflect.DeepEqual(a.Snapshot(), im) {
			t.Fatalf("%d dirs: restored page table differs", dirs)
		}
		if h := a.Home(1<<31, dirs-1); h != dirs-1 {
			t.Fatalf("%d dirs: first touch after restore gave home %d", dirs, h)
		}
		if len(im.pages) != m.MappedPages() {
			t.Fatalf("%d dirs: restoring into a sibling changed the image", dirs)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("restoring into a mapper with another directory count did not panic")
		}
	}()
	NewMapper(8).Restore(NewMapper(4).Snapshot())
}
