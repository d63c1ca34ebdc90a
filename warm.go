package scalablebulk

import (
	"context"
	"sync"

	"scalablebulk/internal/system"
)

// A figure sweep runs every protocol on the same application and machine
// size, and warm-up does not depend on the protocol (system.WarmKey). So
// SweepContext queues warm units, not single points: a unit is the points
// that share a warm key, in input order, and one worker runs all of them
// through one WarmRunner. The unit's first point to build warms up and, if
// more points follow, the runner keeps a WarmImage of its machine, taken
// before it starts; the later points restore that image instead of warming
// up again. The unit's last point lets go of the image as it builds, so the
// image is garbage while that point runs.

// warmUnits splits points into the sweep's work items: the indices of the
// points that share a warm key, in input order, and every other point on
// its own. Units are ordered by their first point.
func (s *Session) warmUnits(points []Point) [][]int {
	var units [][]int
	var numbering system.WarmUnits
	for i, p := range points {
		prof, cfg, err := s.Resolve(p)
		wk, ok := system.WarmKeyOf(prof, cfg)
		u := numbering.Of(wk, ok && err == nil)
		if u == len(units) {
			units = append(units, nil)
		}
		units[u] = append(units[u], i)
	}
	return units
}

// WarmRunner builds and runs points, holding the warm image of the last
// machine it warmed up under that machine's warm key. A Session sweep gives
// each warm unit its own runner; a farm worker keeps one for all its leases,
// which the server hands out unit by unit. It is safe for concurrent use.
// The zero value holds no image.
type WarmRunner struct {
	mu  sync.Mutex
	key system.WarmKey
	img *system.WarmImage
}

// Run builds p's machine from prof and cfg and runs it. The build restores
// the held image when its warm key is the machine's; otherwise it warms up
// and, with keep set, the runner holds the new machine's image in place of
// the old one. keep=false drops the held image before the build (the build
// may still restore it), so it is garbage while this point runs. before,
// when non-nil, runs first and may adjust cfg. A panic anywhere — in
// before, the build or the run — becomes a *CrashError. restored reports
// whether the machine was restored from an image.
func (w *WarmRunner) Run(ctx context.Context, p Point, prof Profile, cfg Config, keep bool, before func(*Config)) (res *Result, restored bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, restored, err = nil, false, &CrashError{Point: p, Report: NewCrashReport(p, cfg, r)}
		}
	}()
	if before != nil {
		before(&cfg)
	}
	key, ok := system.WarmKeyOf(prof, cfg)
	w.mu.Lock()
	img := w.img
	if !ok || key != w.key {
		img = nil
	}
	if !keep {
		w.img = nil
	}
	w.mu.Unlock()
	m, err := system.BuildFrom(prof, cfg, img)
	if err != nil {
		return nil, false, err
	}
	if img == nil && keep && ok {
		wi := m.WarmImage()
		w.mu.Lock()
		w.key, w.img = key, wi
		w.mu.Unlock()
	}
	res, err = m.RunContext(ctx)
	return res, m.Restored(), err
}
