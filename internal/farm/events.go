package farm

import "encoding/json"

// Event is one farm lease-lifecycle event: sweep submissions, lease
// grants/renewals/expiries, results, failures, poisonings, drains. The
// server writes each one as a structured log line (Options.Logger) and keeps
// the newest for FarmStatus's event tail.
type Event struct {
	// Seq is the hub's monotonic sequence number. It is per-process: a
	// restarted server starts again from 1.
	Seq     uint64 `json:"seq"`
	Time    string `json:"time"`
	Kind    string `json:"kind"`
	Sweep   string `json:"sweep,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Lease   string `json:"lease,omitempty"`
	PointID int    `json:"point_id"`        // meaningful only when Point is set
	Point   string `json:"point,omitempty"` // "app/protocol/cores"
	// Corr is the correlation ID minted by the submitting client and
	// threaded through every lease, result, crash bundle and journal entry
	// the point produces — one grep reconstructs a point's whole life.
	Corr   string `json:"corr,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// MarshalJSON writes point_id exactly when the event names a point, so point
// 0 keeps its id and sweep-wide events carry none.
func (e Event) MarshalJSON() ([]byte, error) {
	type plain Event // Event's fields without this method
	var id *int
	if e.Point != "" {
		id = &e.PointID
	}
	return json.Marshal(struct {
		plain
		PointID *int `json:"point_id,omitempty"`
	}{plain(e), id})
}
