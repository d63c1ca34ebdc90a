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
// Client.RunSweep applies. Every event's data is one line of JSON. A
// "result" carries an id: line, "<instance>.<n>": the serving Server's
// instance token and the number of results sent so far, so Last-Event-ID
// resume replays nothing the client already applied. Live progress is at
// /api/v1/sweeps/{id}/progress and in FarmStatus, not on the stream.
const (
	sseResult = "result" // data: PointResult (full result bytes)
	sseEnd    = "end"    // data: SweepProgress; the sweep is terminal
)

// handleSweepEvents streams one sweep's results as Server-Sent Events, as
// full PointResults, read from the sweep's own append-only result slice.
// A Last-Event-ID (or ?after=) this Server issued resumes after the results
// it counts; any other value (another process's id, an unparsable one, one
// past the stream) replays from the first result, which the client
// deduplicates by PointID. The stream ends with an "end" event once every
// point is terminal.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("after") // curl convenience
	}
	sw, n := s.resumePoint(id, lastID)
	if sw == nil {
		http.Error(w, "unknown sweep "+id, http.StatusNotFound)
		return
	}
	s.count("farm_sse_connects")
	if s.log != nil {
		s.log.Info("sse_connect", "sweep", id, "after", lastID, "from", n)
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no") // defeat buffering proxies
	w.WriteHeader(http.StatusOK)
	fl.Flush() // the client sees the stream open before the first event
	out := &sseWriter{w: w, fl: fl}

	// Subscribe before the first read so no emit between read and wait is
	// missed; the wake channel is level-triggered (capacity 1).
	wake, unsub := s.hub.subscribe()
	defer unsub()
	ping := time.NewTicker(s.opts.SSEPing)
	defer ping.Stop()

	for {
		// The results and the terminal check come from one read under one
		// lock, so "end" can never precede a result.
		rs, end := s.resultsFrom(sw, n)
		for _, pr := range rs {
			n++
			s.count("farm_sse_events")
			if out.send(fmt.Sprintf("%s.%d", s.instance, n), sseResult, pr) != nil {
				return
			}
		}
		if end != nil {
			out.send("", sseEnd, end)
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

// resumePoint finds the sweep (nil when unknown) and the result index a
// stream resuming after lastID starts at: the count in an id this Server
// issued for a result the sweep holds, else 0.
func (s *Server) resumePoint(id, lastID string) (*sweep, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw == nil {
		return nil, 0
	}
	inst, count, _ := strings.Cut(lastID, ".")
	n, err := strconv.ParseUint(count, 10, 64)
	if inst != s.instance || err != nil || n > uint64(len(sw.results)) {
		return sw, 0
	}
	return sw, int(n)
}

// resultsFrom runs the expiry sweep, so pings still advance a farm with no
// live worker, then returns sw's results from index n on and, once every
// point is terminal, the final progress. The slice is shared, not copied:
// results is append-only and no record in it is ever modified.
func (s *Server) resultsFrom(sw *sweep, n int) ([]PointResult, *SweepProgress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(sw)
	rs := sw.results[n:]
	if len(sw.results) < len(sw.spec.Points) {
		return rs, nil
	}
	return rs, s.progressLocked(sw)
}

// sseWriter frames SSE events. json.Marshal output never contains a raw
// newline, so every event is a single data: line.
type sseWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

func (o *sseWriter) send(id, typ string, data any) error {
	payload, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if id != "" {
		if _, err := fmt.Fprintf(o.w, "id: %s\n", id); err != nil {
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
