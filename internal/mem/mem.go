// Package mem models the physical address space of the simulated machine:
// 32-byte cache lines, 4 KB pages, and the simple first-touch policy that
// maps virtual pages to physical pages in the directory modules ("A simple
// first-touch policy is used to map virtual pages to physical pages in the
// directory modules", §5 of the paper).
package mem

import (
	"math/bits"
	"slices"

	"scalablebulk/internal/sig"
)

const (
	// LineBytes is the cache-line size (Table 2: 32 B lines).
	LineBytes = 32
	// PageBytes is the virtual/physical page size.
	PageBytes = 4096
	// LinesPerPage is the number of cache lines in a page.
	LinesPerPage = PageBytes / LineBytes
	// pageShift converts a line address to a page number.
	pageShift = 7 // log2(LinesPerPage)
)

// Page is a page number (line address >> pageShift).
type Page uint64

// PageOf returns the page containing a line.
func PageOf(l sig.Line) Page { return Page(l >> pageShift) }

// LineOfAddr converts a byte address to its line address.
func LineOfAddr(addr uint64) sig.Line { return sig.Line(addr / LineBytes) }

// PageTable numbers pages densely: the first page added gets id 0, the
// next id 1, and so on. Callers keep per-page data in slices indexed by id,
// so a page costs no heap object of its own, and walking ids in order
// visits pages in the order they were added, run after run.
//
// The table accepts any 64-bit page (replayed traces and the adversarial
// regions are sparse). It is open-addressed with linear probing and a
// multiplicative hash, and stays at most half full.
type PageTable struct {
	pages []Page     // pages[id] is the page with that id
	slots []pageSlot // power-of-two length
	shift uint       // 64 − log2(len(slots))
}

type pageSlot struct {
	page Page
	id   int32 // id + 1; 0 marks an empty slot
}

// home returns the slot a page's probe sequence starts at (Fibonacci
// hashing: the top bits of the product).
func (t *PageTable) home(p Page) uint64 { return uint64(p) * 0x9E3779B97F4A7C15 >> t.shift }

// Find returns the id of page p, if it has been added.
func (t *PageTable) Find(p Page) (int, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(p); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.id == 0 {
			return 0, false
		}
		if s.page == p {
			return int(s.id - 1), true
		}
	}
}

// Add returns the id of page p, adding it with the next id if it is new.
func (t *PageTable) Add(p Page) (id int, added bool) {
	if 2*(len(t.pages)+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := t.home(p)
	for ; t.slots[i].id != 0; i = (i + 1) & mask {
		if t.slots[i].page == p {
			return int(t.slots[i].id - 1), false
		}
	}
	id = len(t.pages)
	t.slots[i] = pageSlot{page: p, id: int32(id + 1)}
	t.pages = append(t.pages, p)
	return id, true
}

// grow doubles the slot array and re-inserts every page in id order.
func (t *PageTable) grow() {
	n := max(16, 2*len(t.slots))
	t.slots = make([]pageSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for id, p := range t.pages {
		i := t.home(p)
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = pageSlot{page: p, id: int32(id + 1)}
	}
}

// Len returns the number of pages added.
func (t *PageTable) Len() int { return len(t.pages) }

// Pages returns the added pages in id order. The slice aliases the table.
func (t *PageTable) Pages() []Page { return t.pages }

// Mapper assigns pages to home directory modules with a first-touch policy:
// the first node to touch a page becomes its home. The assignment is sticky
// for the lifetime of a run, as in a real OS page table.
type Mapper struct {
	dirs  int
	table PageTable
	homes []int32 // homes[id] is the home of the page with table id id
}

// NewMapper creates a mapper for a machine with the given number of
// directory modules (one per tile).
func NewMapper(dirs int) *Mapper {
	if dirs <= 0 {
		panic("mem: need at least one directory module")
	}
	return &Mapper{dirs: dirs}
}

// Dirs returns the number of directory modules.
func (m *Mapper) Dirs() int { return m.dirs }

// Home returns the home directory module of a line, assigning the page to
// the toucher's tile on first touch.
func (m *Mapper) Home(l sig.Line, toucher int) int {
	id, added := m.table.Add(PageOf(l))
	if added {
		m.homes = append(m.homes, int32(toucher%m.dirs))
	}
	return int(m.homes[id])
}

// HomeIfMapped returns the home of a line if its page has been touched.
func (m *Mapper) HomeIfMapped(l sig.Line) (int, bool) {
	id, ok := m.table.Find(PageOf(l))
	if !ok {
		return 0, false
	}
	return int(m.homes[id]), true
}

// MappedPages returns the number of pages that have been assigned a home.
func (m *Mapper) MappedPages() int { return m.table.Len() }

// Image is a compact, read-only copy of a page table: homes[i] is the home
// of pages[i], in the order the pages were first touched.
type Image struct {
	dirs  int
	pages []Page
	homes []int32
}

// Snapshot encodes the page table as an Image.
func (m *Mapper) Snapshot() *Image {
	return &Image{dirs: m.dirs, pages: slices.Clone(m.table.Pages()), homes: slices.Clone(m.homes)}
}

// Restore replaces the page table with im's. The mapper must have the
// image's directory count; the image is only read.
func (m *Mapper) Restore(im *Image) {
	if im.dirs != m.dirs {
		panic("mem: image has a different directory count")
	}
	m.table = PageTable{}
	for _, p := range im.pages {
		m.table.Add(p)
	}
	m.homes = slices.Clone(im.homes)
}
