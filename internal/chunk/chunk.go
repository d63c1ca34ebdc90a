// Package chunk represents the atomic instruction blocks the machine
// continuously executes: ~2000 dynamic instructions (Table 2), with read and
// write sets captured in hardware address signatures and, as the chunk
// executes, a list of the home directory modules of its accesses (the g_vec
// of Table 1, "formed by the processor as it executes a chunk").
package chunk

import (
	"slices"

	"scalablebulk/internal/mem"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
)

// Access is one memory reference at cache-line granularity.
type Access struct {
	Line  sig.Line
	Write bool
}

// Chunk is one atomic block, as produced by the workload generator and
// executed by a processor.
type Chunk struct {
	Tag msg.CTag
	// Instr is the dynamic instruction count of the block (2000 unless the
	// chunk was cut short by a cache overflow or system call).
	Instr int
	// Accesses are the distinct-line memory references in program order.
	Accesses []Access

	// Derived at the end of execution:

	// RSig and WSig are the chunk's read and write signatures. WSig covers
	// written lines; RSig covers lines that were only read (a line both
	// read and written appears in WSig — conflicts are detected against
	// either set, and this mirrors how Bulk inserts).
	RSig, WSig sig.Sig
	// ReadLines and WriteLines are the distinct lines per set, ascending.
	ReadLines, WriteLines []sig.Line
	// Dirs is the g_vec: ascending IDs of every home directory of the
	// chunk's accesses. WriteDirs are those homing at least one write.
	Dirs      []int
	WriteDirs []int

	// Retries counts failed commit attempts (for starvation handling and
	// statistics). Squashes counts how many times the chunk was squashed.
	Retries  int
	Squashes int

	// ExecUseful and ExecMiss are filled by the processor model: cycles of
	// useful execution and of cache-miss stall spent on the (latest)
	// execution of this chunk. They move to the Squash bucket if the chunk
	// is squashed, or to Useful/CacheMiss when it commits (Figures 7/8).
	ExecUseful uint64
	ExecMiss   uint64

	// sigs is the snapshot of RSig/WSig handed out by Snapshot; Finalize
	// drops it so the next execution takes its own.
	sigs *Sigs
}

// Sigs is an immutable snapshot of one chunk execution's finalized read and
// write signatures. Commit messages and the protocols' per-attempt records
// point at it (see Chunk.Snapshot).
type Sigs struct {
	R, W sig.Sig
}

// Finalize computes signatures, distinct line sets and the g_vec once the
// chunk has executed. home maps a line to its home directory module, which
// depends only on the line's page: Finalize calls it once per run of lines
// on one page, for the run's first line, going through the written lines
// and then the read lines in ascending order.
//
// Finalize reuses the line-set and directory slices of an earlier
// execution in place. Messages of an earlier attempt may still hold those
// slices, so the contents they see must not change: a chunk's accesses are
// fixed, so every re-finalization writes the same sorted lines back, and a
// slice too small for the raw access list is replaced, never grown in
// place. Once warm, Finalize does not allocate.
func (c *Chunk) Finalize(home func(sig.Line) int) {
	c.sigs = nil
	c.RSig.Clear()
	c.WSig.Clear()

	nw := 0
	for _, a := range c.Accesses {
		if a.Write {
			nw++
		}
	}
	w := reuse(c.WriteLines, nw)
	r := reuse(c.ReadLines, len(c.Accesses)-nw)
	for _, a := range c.Accesses {
		if a.Write {
			w = append(w, a.Line)
		} else {
			r = append(r, a.Line)
		}
	}
	slices.Sort(w)
	w = slices.Compact(w)
	slices.Sort(r)
	r = slices.Compact(r)
	// A line both read and written belongs to the write set only: drop
	// the written lines from the read set by merging the two sorted lists.
	k, j := 0, 0
	for _, l := range r {
		for j < len(w) && w[j] < l {
			j++
		}
		if j < len(w) && w[j] == l {
			continue
		}
		r[k] = l
		k++
	}
	r = r[:k]
	c.WriteLines, c.ReadLines = w, r

	dirs := reuse(c.Dirs, len(w)+len(r))
	wdirs := reuse(c.WriteDirs, len(w))
	page := mem.Page(^uint64(0))
	for _, l := range w {
		c.WSig.Insert(l)
		if p := mem.PageOf(l); p != page {
			page = p
			d := home(l)
			dirs = append(dirs, d)
			wdirs = append(wdirs, d)
		}
	}
	page = mem.Page(^uint64(0))
	for _, l := range r {
		c.RSig.Insert(l)
		if p := mem.PageOf(l); p != page {
			page = p
			dirs = append(dirs, home(l))
		}
	}
	slices.Sort(dirs)
	c.Dirs = slices.Compact(dirs)
	slices.Sort(wdirs)
	c.WriteDirs = slices.Compact(wdirs)
}

// Reset returns an abandoned chunk to what its generator returned: Tag,
// Instr and Accesses stay; signatures, line sets, the g_vec, the execution
// counters, Retries, Squashes and the snapshot go. The line sets must go
// with the rest: TrulyConflictsWith reads them for an executing chunk,
// which a fresh chunk has empty.
func (c *Chunk) Reset() {
	*c = Chunk{Tag: c.Tag, Instr: c.Instr, Accesses: c.Accesses}
}

// reuse returns s emptied if it can hold n elements without growing, and a
// fresh slice of capacity n otherwise (nil s stays nil when n is 0).
func reuse[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]T, 0, n)
}

// Snapshot returns the immutable copy of the signatures Finalize built,
// taken on the first call after Finalize and shared by every message and
// protocol record of this execution: all its commit attempts and all their
// destinations. Re-execution rebuilds RSig and WSig in place while old
// messages are still in flight, so those point at the snapshot, never at
// the chunk's own signatures. Nothing may write to a snapshot.
func (c *Chunk) Snapshot() *Sigs {
	if c.sigs == nil {
		c.sigs = &Sigs{R: c.RSig, W: c.WSig}
	}
	return c.sigs
}

// ReadOnlyDirs returns how many participating directories record only reads
// (the "Read Group" bars of Figures 9 and 10).
func (c *Chunk) ReadOnlyDirs() int { return len(c.Dirs) - len(c.WriteDirs) }

// ConflictsWith reports whether committing `other` would squash this chunk:
// other's write signature overlaps this chunk's read or write signature
// (bulk disambiguation, §3.1). Signature-based, so aliasing can report a
// conflict that is not real — exactly as in hardware.
func (c *Chunk) ConflictsWith(otherW *sig.Sig) bool {
	return otherW.Overlaps(&c.RSig) || otherW.Overlaps(&c.WSig)
}

// TrulyConflictsWith reports whether an exact line of ws is really in the
// chunk's read or write set; used only to classify squashes into "data
// conflict" vs "signature aliasing" for the §6.1 statistics. It searches
// the sorted line sets Finalize built.
func (c *Chunk) TrulyConflictsWith(ws []sig.Line) bool {
	for _, l := range ws {
		if _, ok := slices.BinarySearch(c.ReadLines, l); ok {
			return true
		}
		if _, ok := slices.BinarySearch(c.WriteLines, l); ok {
			return true
		}
	}
	return false
}
