package system

import (
	"scalablebulk/internal/cache"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/workload"
)

// WarmKey is everything Build's warm-up reads. The warm-up fills caches,
// first-touch page homes and directory sharers from the workload's warm-up
// chunks alone: no protocol engine, network, fault injector or checker sees
// it. So machines with equal keys — a figure's protocols on one application
// and machine size — leave warm-up in the same state.
type WarmKey struct {
	prof          workload.Profile
	cores, warmup int
	seed          int64
	workload      string
	l1, l2        cache.Config
}

// WarmKeyOf returns cfg's warm-up key. A run with a WorkloadFactory has
// none: the factory is not comparable.
func WarmKeyOf(prof workload.Profile, cfg Config) (WarmKey, bool) {
	if cfg.WorkloadFactory != nil {
		return WarmKey{}, false
	}
	return WarmKey{
		prof: prof, cores: cfg.Cores, warmup: cfg.WarmupChunks, seed: cfg.Seed,
		workload: cfg.Workload, l1: cfg.L1, l2: cfg.L2,
	}, true
}

// WarmUnits numbers warm units, the points that can share one warm-up, in
// order of first appearance: points with equal warm keys share a unit, and
// a point without a key is a unit of its own. The zero value is ready.
type WarmUnits struct {
	byKey map[WarmKey]int
	n     int
}

// Of returns the unit of the next point, whose key is wk; ok false means
// the point has none.
func (u *WarmUnits) Of(wk WarmKey, ok bool) int {
	if ok {
		if i, seen := u.byKey[wk]; seen {
			return i
		}
		if u.byKey == nil {
			u.byKey = map[WarmKey]int{}
		}
		u.byKey[wk] = u.n
	}
	u.n++
	return u.n - 1
}

// WarmImage is a compact, read-only copy of a machine's state after warm-up:
// every core's caches, the directory's sharer lists and the page table.
// BuildFrom restores it in place of the warm-up loop; any number of builds
// may restore one image, concurrently.
type WarmImage struct {
	key    WarmKey
	l1, l2 []*cache.Image
	dir    *dir.Image
	pages  *mem.Image
}

// WarmImage encodes the machine's warm state. Take it after Build and
// before Start. It returns nil when the machine has no WarmKey or some part
// does not fit the compact encodings (see cache.Snapshot); the caller then
// builds every machine with the warm-up loop.
func (m *Machine) WarmImage() *WarmImage {
	key, ok := WarmKeyOf(m.prof, m.cfg)
	if !ok {
		return nil
	}
	img := &WarmImage{
		key: key,
		l1:  make([]*cache.Image, len(m.Procs)),
		l2:  make([]*cache.Image, len(m.Procs)),
	}
	for i, p := range m.Procs {
		h := p.Hierarchy()
		if img.l1[i], img.l2[i] = h.L1.Snapshot(), h.L2.Snapshot(); img.l1[i] == nil || img.l2[i] == nil || h.Writebacks != 0 {
			return nil
		}
	}
	if img.dir = m.Env.State.Snapshot(); img.dir == nil {
		return nil
	}
	img.pages = m.Env.Map.Snapshot()
	return img
}

// restore installs the image into a freshly built machine.
func (img *WarmImage) restore(m *Machine) {
	for i, p := range m.Procs {
		h := p.Hierarchy()
		h.L1.Restore(img.l1[i])
		h.L2.Restore(img.l2[i])
	}
	m.Env.State.Restore(img.dir)
	m.Env.Map.Restore(img.pages)
	m.restored = true
}

// Restored reports whether BuildFrom restored the machine's warm state from
// an image instead of running the warm-up loop.
func (m *Machine) Restored() bool { return m.restored }
