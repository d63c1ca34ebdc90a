// Package tracefmt defines the compact versioned binary format for recorded
// workload traces: the per-core chunk address streams (reads and writes at
// cache-line granularity, in program order) that a simulation consumed,
// including the cache/page-table warm-up phase, so a recorded run can be
// replayed bit-identically under any commit protocol. The format is
// self-describing (magic + version), canonical (one byte sequence per trace:
// records are strictly ordered and integers minimally encoded), and
// tamper-evident (CRC-32 trailer); truncated or corrupt files are rejected
// with typed errors, mirroring the checkpoint-journal tamper handling of
// DESIGN.md §10. See DESIGN.md §14 for the full layout.
package tracefmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
)

// Version is the current trace format version. Decoders reject anything
// newer; the version is bumped only on incompatible layout changes.
const Version = 1

// magic identifies a workload trace file ("ScalableBulk Workload Trace").
var magic = [4]byte{'S', 'B', 'W', 'T'}

// Typed decode failures, matchable with errors.Is.
var (
	// ErrMagic marks a file that is not a workload trace at all.
	ErrMagic = errors.New("tracefmt: not a workload trace (bad magic)")
	// ErrVersion marks a trace written by a newer (or unknown) format version.
	ErrVersion = errors.New("tracefmt: unsupported trace version")
	// ErrTruncated marks a trace cut short mid-structure (e.g. a partial
	// copy or an interrupted write).
	ErrTruncated = errors.New("tracefmt: truncated trace")
	// ErrChecksum marks a structurally complete trace whose CRC-32 trailer
	// does not match its content.
	ErrChecksum = errors.New("tracefmt: checksum mismatch")
	// ErrCorrupt marks a trace whose structure decodes but violates the
	// format's invariants (record order, duplicate keys, count overflow).
	ErrCorrupt = errors.New("tracefmt: corrupt trace")
)

// Header carries the trace's identity and replay-validation parameters.
// App/Source/Seed/Protocol/Fingerprint are provenance: which application
// model and generator produced the stream, under which protocol it was
// recorded, and the SHA-256 of that run's ResultFingerprint. A fingerprint
// is embedded only when the header alone reproduces the run: the recording
// used no fault profile and no invariant checker, which the header does not
// record and which change the fingerprint. Threads, PagesPerThread,
// ChunksPerCore and WarmupPerCore are load-bearing: replay validates the
// machine shape against them.
type Header struct {
	App            string
	Source         string // registered workload source that generated the stream
	Protocol       string // protocol of the recording run (informational)
	Fingerprint    string // sha256 hex of the recording run's ResultFingerprint
	Threads        int
	PagesPerThread int
	Seed           int64
	ChunksPerCore  int // measured chunks recorded per core
	WarmupPerCore  int // warm-up chunks recorded per core
}

// Key identifies one recorded chunk within a section: the requesting core
// and its measured-chunk sequence number (or warm-up index).
type Key struct {
	Proc int
	Seq  uint64
}

// Rec is one recorded chunk: the (core, sequence) key and the access stream
// in program order. In the warm-up section Seq is the warm-up index.
type Rec struct {
	Proc     int
	Seq      uint64
	Instr    int
	Accesses []chunk.Access
}

// Trace is one decoded (or under-construction) workload trace. Warmup and
// Chunks are kept sorted by (Proc, Seq); Encode requires that order and
// Decode enforces it, so a trace has exactly one on-disk representation.
type Trace struct {
	Header Header
	Warmup []Rec
	Chunks []Rec
}

// Chunk materializes the recorded chunk under key (proc, seq) with the tag a
// live generator would have produced. The access slice is shared with the
// trace (accesses are read-only after generation), so repeated replays of a
// squashed chunk cost one struct allocation.
func (r *Rec) Chunk(tag msg.CTag) *chunk.Chunk {
	return &chunk.Chunk{Tag: tag, Instr: r.Instr, Accesses: r.Accesses}
}

// SortRecs puts recs into the canonical (Proc, Seq) order.
func SortRecs(recs []Rec) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Proc != recs[j].Proc {
			return recs[i].Proc < recs[j].Proc
		}
		return recs[i].Seq < recs[j].Seq
	})
}

// zigzag maps signed deltas to unsigned varint-friendly values.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// enc is the canonical encoder: minimal varints appended to one buffer.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.uvarint(zigzag(v)) }
func (e *enc) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) section(recs []Rec) {
	e.uvarint(uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		e.uvarint(uint64(r.Proc))
		e.uvarint(r.Seq)
		e.uvarint(uint64(r.Instr))
		e.uvarint(uint64(len(r.Accesses)))
		prev := int64(0)
		for _, a := range r.Accesses {
			d := zigzag(int64(a.Line) - prev)
			w := uint64(0)
			if a.Write {
				w = 1
			}
			e.uvarint(d<<1 | w)
			prev = int64(a.Line)
		}
	}
}

// Encode renders the trace to its canonical byte sequence. Records must
// already be in (Proc, Seq) order (SortRecs); Encode re-sorts defensively so
// the output is canonical regardless.
func Encode(t *Trace) []byte {
	SortRecs(t.Warmup)
	SortRecs(t.Chunks)
	e := &enc{b: make([]byte, 0, 1024)}
	e.b = append(e.b, magic[:]...)
	e.uvarint(Version)
	h := &t.Header
	e.str(h.App)
	e.str(h.Source)
	e.str(h.Protocol)
	e.str(h.Fingerprint)
	e.uvarint(uint64(h.Threads))
	e.uvarint(uint64(h.PagesPerThread))
	e.varint(h.Seed)
	e.uvarint(uint64(h.ChunksPerCore))
	e.uvarint(uint64(h.WarmupPerCore))
	e.section(t.Warmup)
	e.section(t.Chunks)
	sum := crc32.ChecksumIEEE(e.b)
	e.b = binary.LittleEndian.AppendUint32(e.b, sum)
	return e.b
}

// dec walks the byte slice, distinguishing truncation from corruption.
type dec struct {
	b   []byte
	pos int
}

func (d *dec) remaining() int { return len(d.b) - d.pos }

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, ErrTruncated
		}
		return 0, fmt.Errorf("%w: varint overflow at offset %d", ErrCorrupt, d.pos)
	}
	// Reject non-minimal encodings so every trace value has exactly one
	// byte representation (decode∘encode identity).
	if n > 1 && d.b[d.pos+n-1] == 0 {
		return 0, fmt.Errorf("%w: non-minimal varint at offset %d", ErrCorrupt, d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *dec) varint() (int64, error) {
	u, err := d.uvarint()
	return unzigzag(u), err
}

func (d *dec) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", ErrTruncated
	}
	if n > 1<<20 {
		return "", fmt.Errorf("%w: unreasonable string length %d", ErrCorrupt, n)
	}
	s := string(d.b[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *dec) intField(name string, limit uint64) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > limit {
		return 0, fmt.Errorf("%w: %s %d exceeds limit %d", ErrCorrupt, name, v, limit)
	}
	return int(v), nil
}

func (d *dec) section(name string) ([]Rec, error) {
	count, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Every record costs ≥ 4 bytes, so a count claiming more records than
	// remaining bytes is corruption, not a huge allocation.
	if count > uint64(d.remaining()) {
		return nil, fmt.Errorf("%w: %s section claims %d records with %d bytes left",
			ErrCorrupt, name, count, d.remaining())
	}
	recs := make([]Rec, 0, count)
	for i := uint64(0); i < count; i++ {
		var r Rec
		if r.Proc, err = d.intField("proc", 1<<20); err != nil {
			return nil, err
		}
		if r.Seq, err = d.uvarint(); err != nil {
			return nil, err
		}
		if r.Instr, err = d.intField("instr", 1<<30); err != nil {
			return nil, err
		}
		nAcc, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nAcc > uint64(d.remaining()) {
			return nil, fmt.Errorf("%w: record claims %d accesses with %d bytes left",
				ErrCorrupt, nAcc, d.remaining())
		}
		if nAcc > 0 {
			// Leave Accesses nil for an access-free record so decode is the
			// exact inverse of what a generator produced (round-trip equality).
			r.Accesses = make([]chunk.Access, 0, nAcc)
		}
		prev := int64(0)
		for j := uint64(0); j < nAcc; j++ {
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			line := prev + unzigzag(v>>1)
			if line < 0 {
				return nil, fmt.Errorf("%w: negative line address", ErrCorrupt)
			}
			r.Accesses = append(r.Accesses, chunk.Access{
				Line: sig.Line(line), Write: v&1 == 1,
			})
			prev = line
		}
		if n := len(recs); n > 0 {
			p := &recs[n-1]
			if r.Proc < p.Proc || (r.Proc == p.Proc && r.Seq <= p.Seq) {
				return nil, fmt.Errorf("%w: %s records out of (proc, seq) order", ErrCorrupt, name)
			}
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// Decode parses one canonical trace, failing with ErrMagic / ErrVersion /
// ErrTruncated / ErrChecksum / ErrCorrupt as appropriate. Arbitrary input
// never panics (FuzzTraceDecode pins this).
func Decode(data []byte) (*Trace, error) {
	if len(data) < len(magic) {
		return nil, ErrTruncated
	}
	if [4]byte(data[:4]) != magic {
		return nil, ErrMagic
	}
	if len(data) < len(magic)+4+1 {
		return nil, ErrTruncated
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}
	d := &dec{b: body, pos: len(magic)}
	v, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrVersion, v, Version)
	}
	t := &Trace{}
	h := &t.Header
	for _, dst := range []*string{&h.App, &h.Source, &h.Protocol, &h.Fingerprint} {
		if *dst, err = d.str(); err != nil {
			return nil, err
		}
	}
	if h.Threads, err = d.intField("threads", 1<<20); err != nil {
		return nil, err
	}
	if h.PagesPerThread, err = d.intField("pagesPerThread", 1<<30); err != nil {
		return nil, err
	}
	if h.Seed, err = d.varint(); err != nil {
		return nil, err
	}
	if h.ChunksPerCore, err = d.intField("chunksPerCore", 1<<30); err != nil {
		return nil, err
	}
	if h.WarmupPerCore, err = d.intField("warmupPerCore", 1<<30); err != nil {
		return nil, err
	}
	if t.Warmup, err = d.section("warmup"); err != nil {
		return nil, err
	}
	if t.Chunks, err = d.section("chunks"); err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return t, nil
}

// WriteFile encodes the trace to path (0644).
func WriteFile(path string, t *Trace) error {
	return os.WriteFile(path, Encode(t), 0o644)
}

// ReadFile reads and decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Stats summarizes one section for inspection tools.
type Stats struct {
	Records  int
	Accesses int
	Writes   int
	Pages    int
}

// SectionStats computes record/access/write/distinct-page counts.
func SectionStats(recs []Rec) Stats {
	var s Stats
	pages := map[uint64]bool{}
	for i := range recs {
		s.Records++
		for _, a := range recs[i].Accesses {
			s.Accesses++
			if a.Write {
				s.Writes++
			}
			pages[uint64(a.Line)>>7] = true
		}
	}
	s.Pages = len(pages)
	return s
}
