package scalablebulk

import "scalablebulk/internal/system"

// A figure sweep runs every protocol on the same application and machine
// size, and warm-up does not depend on the protocol (system.WarmKey). So
// SweepContext queues warm units, not single points: a unit is the points
// that share a warm key, in input order, and one worker runs all of them.
// The unit's first point to build warms up and, if more points follow,
// takes a WarmImage of its machine before starting it; the later points
// restore that image instead of warming up again. The image lives in the
// worker, so it is garbage once the unit's last point has built.

// warmUnits splits points into the sweep's work items: the indices of the
// points that share a warm key, in input order, and every other point on
// its own. Units are ordered by their first point.
func (s *Session) warmUnits(points []Point) [][]int {
	var units [][]int
	var numbering system.WarmUnits
	for i, p := range points {
		cfg := s.pointConfig(runKey{p.App, p.Protocol, p.Cores})
		prof, err := ResolvePointProfile(p.App, &cfg)
		wk, ok := system.WarmKeyOf(prof, cfg)
		u := numbering.Of(wk, ok && err == nil)
		if u == len(units) {
			units = append(units, nil)
		}
		units[u] = append(units[u], i)
	}
	return units
}
