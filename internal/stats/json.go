package stats

import "encoding/json"

// collectorJSON is the Collector's serialized form for sweep checkpoint
// journals. It must round-trip every field that any figure reduction reads —
// including the closed commit attempts behind BottleneckRatio — so that a
// result restored from a journal renders byte-identical figure output.
type collectorJSON struct {
	CommitLat          []uint32  `json:"commit_lat"`
	DirsTotal          []uint8   `json:"dirs_total"`
	DirsWrite          []uint8   `json:"dirs_write"`
	Attempts           []Attempt `json:"attempts"`
	QueueSamples       []int     `json:"queue_samples"`
	SquashTrueConflict uint64    `json:"squash_true_conflict"`
	SquashAliasing     uint64    `json:"squash_aliasing"`
	ChunksCommitted    uint64    `json:"chunks_committed"`
	CommitFailures     uint64    `json:"commit_failures"`
	ReadNacks          uint64    `json:"read_nacks"`
}

// MarshalJSON serializes the collector, including the closed commit attempts
// (no attempt is open once a run completes, and the observer hooks are
// run-scoped, so neither is persisted).
func (c *Collector) MarshalJSON() ([]byte, error) {
	return json.Marshal(collectorJSON{
		CommitLat: c.CommitLat, DirsTotal: c.DirsTotal, DirsWrite: c.DirsWrite,
		Attempts: c.attempts, QueueSamples: c.QueueSamples,
		SquashTrueConflict: c.SquashTrueConflict, SquashAliasing: c.SquashAliasing,
		ChunksCommitted: c.ChunksCommitted, CommitFailures: c.CommitFailures,
		ReadNacks: c.ReadNacks,
	})
}

// UnmarshalJSON restores a collector serialized by MarshalJSON.
func (c *Collector) UnmarshalJSON(data []byte) error {
	var v collectorJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*c = Collector{
		CommitLat: v.CommitLat, DirsTotal: v.DirsTotal, DirsWrite: v.DirsWrite,
		attempts: v.Attempts, QueueSamples: v.QueueSamples,
		SquashTrueConflict: v.SquashTrueConflict, SquashAliasing: v.SquashAliasing,
		ChunksCommitted: v.ChunksCommitted, CommitFailures: v.CommitFailures,
		ReadNacks: v.ReadNacks,
	}
	return nil
}
