package scalablebulk

import (
	"context"
	"sync"
	"sync/atomic"

	"scalablebulk/internal/system"
)

// A figure sweep runs every protocol on the same application and machine
// size, and warm-up does not depend on the protocol (system.WarmKey). So
// SweepContext groups the points it will run by warm key: the group's first
// point to run builds with the warm-up loop and publishes a WarmImage of its
// machine before starting it, and the group's other points restore that
// image instead of warming up again. The image is dropped once the group's
// last point has taken it, and whatever is left when the sweep returns.

// warmGroup is the points of one sweep that share a warm key.
type warmGroup struct {
	mu     sync.Mutex
	left   int           // points that have not yet left the group
	leader bool          // a point is building the image
	ready  chan struct{} // closed when the leader published
	img    *system.WarmImage
	held   *atomic.Int64 // the Session's count of held images
}

// planWarm groups the points the sweep will actually run — not already in
// the cache or the journal, deduplicated — by warm key. Only groups of two or
// more points share an image; the returned map holds each of their points.
func (s *Session) planWarm(points []Point) map[runKey]*warmGroup {
	j := s.Journal()
	byKey := map[system.WarmKey][]runKey{}
	seen := map[runKey]bool{}
	for _, p := range points {
		k := runKey{p.App, p.Protocol, p.Cores}
		s.mu.Lock()
		_, cached := s.cache[k]
		s.mu.Unlock()
		if seen[k] || cached {
			continue
		}
		seen[k] = true
		cfg := s.pointConfig(k)
		prof, err := ResolvePointProfile(k.app, &cfg)
		if err != nil || j != nil && j.has(p, ConfigHash(cfg)) {
			continue
		}
		if wk, ok := system.WarmKeyOf(prof, cfg); ok {
			byKey[wk] = append(byKey[wk], k)
		}
	}
	groups := map[runKey]*warmGroup{}
	for _, ks := range byKey {
		if len(ks) < 2 {
			continue
		}
		g := &warmGroup{left: len(ks), ready: make(chan struct{}), held: &s.warmImages}
		for _, k := range ks {
			groups[k] = g
		}
	}
	return groups
}

// join enters a point's build. The first point to join leads: it builds with
// the warm-up loop and must publish. The others wait for the leader's image
// (nil if the leader failed), take it and leave the group. A nil group has
// no leader and no image. err is ctx's error if it ended during the wait.
func (g *warmGroup) join(ctx context.Context) (lead bool, img *system.WarmImage, err error) {
	if g == nil {
		return false, nil, nil
	}
	g.mu.Lock()
	lead, g.leader = !g.leader, true
	g.mu.Unlock()
	if lead {
		return true, nil, nil
	}
	select {
	case <-g.ready:
		return false, g.leave(), nil
	case <-ctx.Done():
		g.leave()
		return false, nil, ctx.Err()
	}
}

// publish ends the leader's build with its image (nil if the build failed)
// and the leader leaves the group. Only the first call counts, so a leader
// may defer publish(nil) against panics and errors.
func (g *warmGroup) publish(img *system.WarmImage) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.ready:
		return
	default:
	}
	if g.left--; img != nil && g.left > 0 {
		g.img = img
		g.held.Add(1)
	}
	close(g.ready)
}

// leave takes the group's image and leaves the group; the last point to
// leave drops the image.
func (g *warmGroup) leave() *system.WarmImage {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	img := g.img
	if g.left--; g.left <= 0 {
		g.dropLocked()
	}
	return img
}

// drop releases the group's image, if it still holds one.
func (g *warmGroup) drop() {
	g.mu.Lock()
	g.dropLocked()
	g.mu.Unlock()
}

func (g *warmGroup) dropLocked() {
	if g.img != nil {
		g.img = nil
		g.held.Add(-1)
	}
}
