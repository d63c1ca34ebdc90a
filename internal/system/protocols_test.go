package system

import (
	"strings"
	"testing"

	"scalablebulk/internal/core"
	"scalablebulk/internal/protocol"
	"scalablebulk/internal/tcc"
	"scalablebulk/internal/workload"
)

// TestTables checks the protocol and workload-source tables: names are
// unique within each table, every row is complete and has a Doc, no source
// name collides with the replay:PATH spec syntax, and each protocol's
// constructor accepts its default option block and rejects a block of the
// wrong type.
func TestTables(t *testing.T) {
	uniqueNames := func(t *testing.T, names []string) {
		seen := map[string]bool{}
		for _, name := range names {
			if seen[name] {
				t.Errorf("name %q appears twice in the table", name)
			}
			seen[name] = true
		}
	}
	t.Run("protocol_unique_names", func(t *testing.T) { uniqueNames(t, ProtocolNames()) })
	t.Run("protocol_complete_rows", func(t *testing.T) {
		for _, d := range Descriptors {
			if d.Name == "" || d.Doc == "" || d.New == nil || d.DefaultOptions == nil {
				t.Errorf("incomplete protocol row %+v", d)
			}
		}
	})
	t.Run("source_unique_names", func(t *testing.T) { uniqueNames(t, workload.Names()) })
	t.Run("source_names", func(t *testing.T) {
		for _, d := range workload.Descriptors {
			if d.Name == "" || d.Doc == "" {
				t.Errorf("workload row without a name or Doc: %+v", d)
			}
		}
	})
	t.Run("source_factories", func(t *testing.T) {
		for _, d := range workload.Descriptors {
			if d.New == nil {
				t.Errorf("workload %q has no factory", d.Name)
			}
		}
	})
	t.Run("replay_prefix", func(t *testing.T) {
		for _, name := range workload.Names() {
			if strings.HasPrefix(name, workload.ReplayPrefix) {
				t.Errorf("workload %q collides with the replay spec syntax", name)
			}
		}
	})
	prof, _ := workload.ByName("Radix")
	for _, d := range Descriptors {
		t.Run("options/"+d.Name, func(t *testing.T) {
			cfg := DefaultConfig(4, d.Name)
			cfg.WarmupChunks = 1
			cfg.ProtoOptions = d.DefaultOptions
			if _, err := Build(prof, cfg); err != nil {
				t.Errorf("default options rejected: %v", err)
			}
			cfg.ProtoOptions = struct{}{}
			if _, err := Build(prof, cfg); err == nil || !strings.Contains(err.Error(), "options must be") {
				t.Errorf("wrong option type: err = %v, want an option-type error", err)
			}
		})
	}
}

// TestZeroCommitDeadlineRejected: an option block that leaves
// CommitDeadline unset is a build error, not a panic in the engine's
// kernel; WatchdogDisabled stays a valid deadline.
func TestZeroCommitDeadlineRejected(t *testing.T) {
	prof, _ := workload.ByName("Radix")
	cfg := DefaultConfig(2, ProtoTCC)
	cfg.WarmupChunks = 1
	cfg.ProtoOptions = tcc.Config{VendorServiceTime: 4}
	if _, err := Build(prof, cfg); err == nil || !strings.Contains(err.Error(), "CommitDeadline") {
		t.Errorf("zero CommitDeadline: err = %v, want an error naming CommitDeadline", err)
	}
	cfg.ProtoOptions = tcc.Config{VendorServiceTime: 4, CommitDeadline: protocol.WatchdogDisabled}
	if _, err := Build(prof, cfg); err != nil {
		t.Errorf("WatchdogDisabled: %v", err)
	}
}

// TestOCIOffRejected: no engine code reads core.Config.OCI, so an option
// block that turns it off would run with OCI on under a new config hash.
// Both ScalableBulk rows refuse it and name the OCI-off ablation instead.
func TestOCIOffRejected(t *testing.T) {
	prof, _ := workload.ByName("Radix")
	for _, name := range []string{ProtoScalableBulk, ProtoNoOCI} {
		cfg := DefaultConfig(4, name)
		cfg.WarmupChunks = 1
		opts := core.DefaultConfig()
		opts.OCI = false
		cfg.ProtoOptions = opts
		if _, err := Build(prof, cfg); err == nil || !strings.Contains(err.Error(), ProtoNoOCI) {
			t.Errorf("%s with OCI off: err = %v, want an error naming %s", name, err, ProtoNoOCI)
		}
	}
}
