package workload

// The workload-source layer (DESIGN.md §14): the synthetic SPLASH-2/PARSEC
// generator, the adversarial family, and trace replay all implement one
// Source contract. The named sources are one ordered table (Descriptors), so
// internal/system builds chunk streams without naming any concrete generator
// and the conformance and differential suites iterate every source.

import (
	"fmt"
	"strings"

	"scalablebulk/internal/chunk"
)

// Source produces the chunk streams of one simulated run. Implementations
// must be deterministic: NextChunk(proc, seq) is a pure function of the
// source's construction parameters, so a squashed chunk re-executes
// identically and two runs of one configuration are bit-identical.
type Source interface {
	// NextChunk returns the seq-th measured chunk of core proc.
	NextChunk(proc int, seq uint64) *chunk.Chunk
	// WarmupChunk returns the i-th cache/page-table warm-up footprint of
	// core proc; warm-up assigns first-touch directory homes.
	WarmupChunk(proc int, i int) *chunk.Chunk
	// PagesPerThread is each thread's private working set in pages.
	PagesPerThread() int
}

// Validator is implemented by sources that can only serve specific machine
// shapes (trace replay). internal/system calls it after construction and
// fails the run with the returned error instead of panicking mid-stream.
type Validator interface {
	Validate(cores, chunksPerCore, warmupChunks int) error
}

// Factory builds a Source for one run. prof parameterizes the synthetic
// generator; adversarial generators and replay ignore everything but its
// name. threads and seed come from the run's Config.
type Factory func(prof Profile, threads int, seed int64) (Source, error)

// SourceName is the name of the default synthetic generator.
const SourceName = "synthetic"

// ReplayPrefix introduces a trace-replay spec: "replay:PATH".
const ReplayPrefix = "replay:"

// Descriptor is one row of the workload-source table.
type Descriptor struct {
	// Name is matched exactly against Config.Workload; a non-synthetic
	// source's name is also an App label (SourceProfile).
	Name string
	// Doc is the one-line description printed by the CLIs' -workloads list.
	Doc string
	// Adversarial marks generators aimed at commit-protocol weak spots;
	// they ignore the application profile (except as a label) and are
	// addressable as run labels through SourceProfile.
	Adversarial bool
	// New builds the source.
	New Factory
}

// Descriptors is every named workload source, in listing order: the
// synthetic default, then the adversarial family. No name may start with
// "replay:", which is the trace-replay spec syntax.
var Descriptors = append([]Descriptor{{
	Name: SourceName,
	Doc:  "synthetic SPLASH-2/PARSEC application models (§5, the default)",
	New: func(prof Profile, threads int, seed int64) (Source, error) {
		return New(prof, threads, seed), nil
	},
}}, advSources...)

// Lookup returns the table row named name.
func Lookup(name string) (Descriptor, bool) {
	for _, d := range Descriptors {
		if d.Name == name {
			return d, true
		}
	}
	return Descriptor{}, false
}

// Names lists every named source in table order.
func Names() []string {
	out := make([]string, len(Descriptors))
	for i, d := range Descriptors {
		out[i] = d.Name
	}
	return out
}

// Resolve maps a Config.Workload spec to a factory: "" and
// "synthetic" select the default generator, "replay:PATH" replays the trace
// at PATH, anything else is a table lookup.
func Resolve(spec string) (Factory, error) {
	if spec == "" {
		spec = SourceName
	}
	if path, ok := strings.CutPrefix(spec, ReplayPrefix); ok {
		return ReplayFile(path), nil
	}
	d, ok := Lookup(spec)
	if !ok {
		return nil, fmt.Errorf("workload: unknown source %q (registered: %s)",
			spec, strings.Join(Names(), ", "))
	}
	return d.New, nil
}

// SourceProfile returns the label Profile under which a non-synthetic
// named source runs (Result.App, journal keys, golden names): the
// source's own name. The synthetic generator has no label of its own — it
// models whatever application profile it is given — so it reports ok=false,
// as does an unknown name.
func SourceProfile(name string) (Profile, bool) {
	d, ok := Lookup(name)
	if !ok || d.Name == SourceName {
		return Profile{}, false
	}
	return Profile{Name: d.Name, Suite: "WORKLOAD"}, true
}

// ResolveApp resolves an App label, the way a sweep point and a
// model-checking spec name their workload: an application model by name
// (source ""), or a registered workload source running under its own name
// (source is that name, the run's Config.Workload).
func ResolveApp(app string) (prof Profile, source string, err error) {
	if prof, ok := ByName(app); ok {
		return prof, "", nil
	}
	if prof, ok := SourceProfile(app); ok {
		return prof, app, nil
	}
	return Profile{}, "", fmt.Errorf("unknown application or workload %q", app)
}
