package farm

import (
	"sort"
	"time"
)

// newDist buckets values (already in their final unit) against bounds and
// fills the exact summary fields.
func newDist(values []float64, bounds []float64) Dist {
	d := Dist{
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]uint64, len(bounds)+1),
	}
	for _, v := range values {
		i := sort.SearchFloat64s(bounds, v)
		if i < len(bounds) && v == bounds[i] {
			i++ // exclusive upper edges, like metrics.Histogram
		}
		d.Counts[i]++
		d.Count++
		d.Sum += v
		if d.Count == 1 || v < d.Min {
			d.Min = v
		}
		if v > d.Max {
			d.Max = v
		}
	}
	return d
}

// attemptBounds buckets lease grants per point for SweepProgress.Attempts.
var attemptBounds = []float64{1, 2, 3, 5, 8}

// progressLocked computes the live SweepProgress for one sweep. Caller holds
// s.mu and has already run expireLocked.
func (s *Server) progressLocked(sw *sweep) *SweepProgress {
	now := time.Now()
	p := &SweepProgress{
		SweepID: sw.id,
		Corr:    sw.corr,
		Total:   len(sw.spec.Points),
	}
	p.Queued, p.Leased, p.Done, p.Failed, p.Poisoned = sw.table.counts()
	p.Terminal = p.Done+p.Failed+p.Poisoned >= p.Total

	var attempts, ages []float64
	workers := map[string]bool{}
	for _, e := range sw.table.entries {
		attempts = append(attempts, float64(e.attempt))
		p.Requeues += e.requeues
	}
	for _, la := range sw.table.leases {
		ages = append(ages, float64(now.Sub(la.l.granted).Microseconds())/1000)
		workers[la.l.worker] = true
	}
	p.Attempts = newDist(attempts, attemptBounds)
	p.LeaseAgeMS = newDist(ages, leaseAgeBounds)
	p.Workers = len(workers)

	for _, pr := range sw.results {
		if pr.Restored {
			p.Restored++
		}
	}
	elapsed := now.Sub(sw.created)
	p.ElapsedMS = elapsed.Milliseconds()
	fresh := p.Done - p.Restored
	p.ETAMS = -1
	if fresh > 0 && elapsed > 0 {
		p.PointsPerSec = float64(fresh) / elapsed.Seconds()
		remaining := p.Total - p.Done - p.Failed - p.Poisoned
		p.ETAMS = int64(float64(remaining) / p.PointsPerSec * 1000)
	}
	if p.Terminal {
		p.ETAMS = 0
	}
	return p
}

// farmStatusLocked builds the whole-server view for GET /api/v1/farm.
// Caller holds s.mu and has already expired every sweep.
func (s *Server) farmStatusLocked(eventTail int) *FarmStatus {
	now := time.Now()
	fs := &FarmStatus{
		Now:      now.UTC().Format(time.RFC3339Nano),
		Seq:      s.hub.last(),
		Draining: s.draining.Load(),
	}
	liveLeases := map[string]int{}
	for _, id := range s.order {
		sw := s.sweeps[id]
		fs.Sweeps = append(fs.Sweeps, *s.progressLocked(sw))
		for _, la := range sw.table.leases {
			liveLeases[la.l.worker]++
			fs.Leases = append(fs.Leases, LeaseStatus{
				Sweep: sw.id, Lease: la.l.id, Worker: la.l.worker,
				PointID: la.entry.id, Point: pointLabel(la.entry.point),
				Corr: sw.corr, Attempt: la.entry.attempt,
				AgeMS: now.Sub(la.l.granted).Milliseconds(),
				TTLMS: s.opts.LeaseTTL.Milliseconds(),
			})
		}
		for _, e := range sw.table.entries {
			if e.state == statePoisoned {
				fs.Poisoned = append(fs.Poisoned, PoisonStatus{
					Sweep: sw.id, PointID: e.id, Point: pointLabel(e.point),
					Corr: sw.corr, Error: e.lastErr,
				})
			}
		}
	}
	sort.Slice(fs.Leases, func(i, j int) bool {
		a, b := fs.Leases[i], fs.Leases[j]
		if a.Sweep != b.Sweep {
			return a.Sweep < b.Sweep
		}
		return a.PointID < b.PointID
	})

	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		wi := s.workers[id]
		fs.Workers = append(fs.Workers, WorkerStatus{
			ID:     id,
			IdleMS: now.Sub(wi.lastSeen).Milliseconds(),
			Leases: liveLeases[id],
			Done:   wi.done, Failed: wi.failed, Crashed: wi.crashed,
		})
	}
	if eventTail > 0 {
		fs.Events = s.hub.tail(eventTail)
	}
	return fs
}

// workerInfo aggregates what the server has seen of one worker identity.
type workerInfo struct {
	lastSeen time.Time
	done     uint64
	failed   uint64
	crashed  uint64
}

// touchWorker records contact from a worker. Caller holds s.mu.
func (s *Server) touchWorker(id string) *workerInfo {
	if id == "" {
		return nil
	}
	wi := s.workers[id]
	if wi == nil {
		wi = &workerInfo{}
		s.workers[id] = wi
	}
	wi.lastSeen = time.Now()
	return wi
}
