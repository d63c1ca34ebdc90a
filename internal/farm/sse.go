package farm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// SSE event types on GET /api/v1/sweeps/{id}/events: exactly what
// Client.RunSweep applies. Every event's data is one line of JSON; "result"
// and "snapshot" carry an id: line (the hub seq) so Last-Event-ID resume
// replays nothing the client already applied. Live progress is at
// /api/v1/sweeps/{id}/progress and in FarmStatus, not on the stream.
const (
	sseResult   = "result"   // data: PointResult (full result bytes)
	sseSnapshot = "snapshot" // data: SweepStatus with the full result stream
	sseEnd      = "end"      // data: SweepProgress; the sweep is terminal
)

// handleSweepEvents streams one sweep's results as Server-Sent Events, as
// full PointResults. A client that reconnects with Last-Event-ID behind the
// hub's retained ring gets a "snapshot" (full SweepStatus) instead of a
// pretend-contiguous replay — result application is idempotent by PointID,
// so replay and snapshot both converge. The stream ends with an "end" event
// once every point is terminal.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	if !s.sweepExists(id) {
		http.Error(w, "unknown sweep "+id, http.StatusNotFound)
		return
	}
	var after uint64
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("after") // curl convenience
	}
	if lastID != "" {
		after, _ = strconv.ParseUint(lastID, 10, 64)
	}
	s.count("farm_sse_connects")
	if s.log != nil {
		s.log.Info("sse_connect", "sweep", id, "after", after)
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no") // defeat buffering proxies
	w.WriteHeader(http.StatusOK)
	fl.Flush() // the client sees the stream open before the first event
	out := &sseWriter{w: w, fl: fl}

	// Subscribe before the first drain so no emit between drain and wait is
	// missed; the wake channel is level-triggered (capacity 1).
	wake, unsub := s.hub.subscribe()
	defer unsub()
	ping := time.NewTicker(s.opts.SSEPing)
	defer ping.Stop()

	for {
		// Observe the sweep before draining: every event that made it
		// terminal was emitted under s.mu before this observation (some,
		// like an expiry's poisoned result, inside it), so the drain below
		// sends them all before "end".
		p := s.sweepProgress(id)
		for {
			evs, gapped := s.hub.since(after)
			if gapped {
				st, seq, ok := s.sweepSnapshot(id)
				if !ok {
					return
				}
				if out.send(seq, sseSnapshot, st) != nil {
					return
				}
				after = seq
				continue
			}
			if len(evs) == 0 {
				break
			}
			// Advance past every event, sent or not, so the resume point
			// stays inside the ring.
			for _, e := range evs {
				after = e.Seq
				if e.Kind != "result" || e.Sweep != id {
					continue
				}
				if pr, ok := s.sweepResult(id, e.PointID); ok {
					s.count("farm_sse_events")
					if out.send(e.Seq, sseResult, pr) != nil {
						return
					}
				}
			}
		}
		if p != nil && p.Terminal {
			out.send(0, sseEnd, p)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		case <-ping.C:
			if out.comment("ping") != nil {
				return
			}
		}
	}
}

func (s *Server) sweepExists(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sweeps[id]
	return ok
}

// sweepProgress computes the live progress for one sweep (nil when unknown),
// running the expiry sweep first so a stalled farm still advances.
func (s *Server) sweepProgress(id string) *SweepProgress {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return nil
	}
	s.expireLocked(sw)
	return s.progressLocked(sw)
}

// sweepSnapshot builds the full-stream SweepStatus plus the hub seq it is
// current as of — the resume point an SSE client adopts after a gap.
func (s *Server) sweepSnapshot(id string) (*SweepStatus, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return nil, 0, false
	}
	s.expireLocked(sw)
	return s.statusLocked(sw), s.hub.last(), true
}

// sweepResult fetches one point's terminal record from the result stream.
func (s *Server) sweepResult(id string, pointID int) (PointResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return PointResult{}, false
	}
	if pr := s.findResult(sw, pointID); pr != nil {
		return *pr, true
	}
	return PointResult{}, false
}

// sseWriter frames SSE events. json.Marshal output never contains a raw
// newline, so every event is a single data: line.
type sseWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

func (o *sseWriter) send(id uint64, typ string, data any) error {
	payload, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if id > 0 {
		if _, err := fmt.Fprintf(o.w, "id: %d\n", id); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(o.w, "event: %s\ndata: %s\n\n", typ, payload); err != nil {
		return err
	}
	o.fl.Flush()
	return nil
}

func (o *sseWriter) comment(c string) error {
	_, err := fmt.Fprintf(o.w, ": %s\n\n", c)
	o.fl.Flush()
	return err
}

// sseEvent is one parsed client-side event.
type sseEvent struct {
	ID   string
	Type string
	Data []byte
}

// sseReader parses a text/event-stream body. onActivity fires per line read
// (including comments), which is what feeds the client's idle watchdog —
// keepalive pings count as life even when no events flow.
type sseReader struct {
	br         *bufio.Reader
	onActivity func()
}

func newSSEReader(r *bufio.Reader, onActivity func()) *sseReader {
	return &sseReader{br: r, onActivity: onActivity}
}

// next reads one event, skipping comments and blank keepalives. Any read
// error (including a mid-event cut) surfaces as-is.
func (r *sseReader) next() (*sseEvent, error) {
	ev := &sseEvent{}
	var data [][]byte
	seen := false
	for {
		line, err := r.br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		if r.onActivity != nil {
			r.onActivity()
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			if !seen {
				continue
			}
			ev.Data = bytes.Join(data, []byte("\n"))
			return ev, nil
		}
		if strings.HasPrefix(line, ":") {
			continue // comment / keepalive
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "event":
			ev.Type = value
			seen = true
		case "data":
			data = append(data, []byte(value))
			seen = true
		case "id":
			ev.ID = value
			seen = true
		}
	}
}
