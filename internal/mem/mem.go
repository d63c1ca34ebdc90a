// Package mem models the physical address space of the simulated machine:
// 32-byte cache lines, 4 KB pages, and the simple first-touch policy that
// maps virtual pages to physical pages in the directory modules ("A simple
// first-touch policy is used to map virtual pages to physical pages in the
// directory modules", §5 of the paper).
package mem

import "scalablebulk/internal/sig"

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

// Mapper assigns pages to home directory modules with a first-touch policy:
// the first node to touch a page becomes its home. The assignment is sticky
// for the lifetime of a run, as in a real OS page table.
type Mapper struct {
	dirs  int
	pages map[Page]int
}

// NewMapper creates a mapper for a machine with the given number of
// directory modules (one per tile).
func NewMapper(dirs int) *Mapper {
	if dirs <= 0 {
		panic("mem: need at least one directory module")
	}
	return &Mapper{dirs: dirs, pages: make(map[Page]int)}
}

// Dirs returns the number of directory modules.
func (m *Mapper) Dirs() int { return m.dirs }

// Home returns the home directory module of a line, assigning the page to
// the toucher's tile on first touch.
func (m *Mapper) Home(l sig.Line, toucher int) int {
	p := PageOf(l)
	if d, ok := m.pages[p]; ok {
		return d
	}
	d := toucher % m.dirs
	m.pages[p] = d
	return d
}

// HomeIfMapped returns the home of a line if its page has been touched.
func (m *Mapper) HomeIfMapped(l sig.Line) (int, bool) {
	d, ok := m.pages[PageOf(l)]
	return d, ok
}

// MappedPages returns the number of pages that have been assigned a home.
func (m *Mapper) MappedPages() int { return len(m.pages) }

// Image is a compact, read-only copy of a page table: homes[i] is the home
// of pages[i].
type Image struct {
	dirs  int
	pages []Page
	homes []int32
}

// Snapshot encodes the page table as an Image.
func (m *Mapper) Snapshot() *Image {
	im := &Image{
		dirs:  m.dirs,
		pages: make([]Page, 0, len(m.pages)),
		homes: make([]int32, 0, len(m.pages)),
	}
	for p, d := range m.pages {
		im.pages = append(im.pages, p)
		im.homes = append(im.homes, int32(d))
	}
	return im
}

// Restore replaces the page table with im's. The mapper must have the
// image's directory count; the image is only read.
func (m *Mapper) Restore(im *Image) {
	if im.dirs != m.dirs {
		panic("mem: image has a different directory count")
	}
	m.pages = make(map[Page]int, len(im.pages))
	for i, p := range im.pages {
		m.pages[p] = int(im.homes[i])
	}
}
