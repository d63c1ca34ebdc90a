package system

import (
	"fmt"
	"reflect"

	"scalablebulk/internal/bulksc"
	"scalablebulk/internal/core"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/protocol"
	"scalablebulk/internal/seqpro"
	"scalablebulk/internal/tcc"
)

// Names of the runnable protocols: the four of Table 3 and the Figure 4(c)
// OCI-off ablation of ScalableBulk.
const (
	ProtoScalableBulk = "ScalableBulk"
	ProtoTCC          = "TCC"
	ProtoSEQ          = "SEQ"
	ProtoBulkSC       = "BulkSC"
	ProtoNoOCI        = "ScalableBulk-NoOCI"
)

// Descriptor is one row of the protocol table: how to construct the engine,
// its default option block, the processor tuning it needs, and how it is
// presented to users.
type Descriptor struct {
	// Name is matched exactly against Config.Protocol and the CLIs'
	// -protocol flags.
	Name string
	// Doc is the one-line description printed by the CLIs' -protocols list.
	Doc string
	// Evaluated marks one of the four Table 3 protocols the paper's figures
	// compare; variants (ablations) leave it false and are excluded from
	// the figure sweeps but runnable everywhere else.
	Evaluated bool
	// DefaultOptions is the protocol's typed option block (e.g.
	// core.Config), the only home of its defaults. Config.ProtoOptions
	// replaces it per run. The blocks are plain values, so a type
	// assertion hands each caller its own copy.
	DefaultOptions any
	// New builds the engine over env with the given option block, which is
	// always non-nil; a block of the wrong concrete type is an error.
	New func(env *dir.Env, opts any) (protocol.Engine, error)
	// Tuning is the processor-model configuration this protocol requires.
	Tuning protocol.Tuning
}

// Descriptors is every runnable protocol, in listing order: the paper's four
// in Table 3 order, then the variants. Adding a protocol is one row here.
var Descriptors = []Descriptor{
	{
		Name:           ProtoScalableBulk,
		Doc:            "the paper's protocol: distributed group formation, overlapped commits, OCI (§3)",
		Evaluated:      true,
		DefaultOptions: core.DefaultConfig(),
		New:            scalableBulk(ProtoScalableBulk),
		Tuning:         protocol.Tuning{OCIRecall: true},
	},
	{
		Name:           ProtoTCC,
		Doc:            "Scalable TCC: global TID order, per-directory probe/mark before write-set push (§2.2)",
		Evaluated:      true,
		DefaultOptions: tcc.DefaultConfig(),
		New:            engine(ProtoTCC, tcc.New),
	},
	{
		Name:           ProtoSEQ,
		Doc:            "SEQ-PRO: sequential directory occupation in ascending order, fully serialized commits (§2.2)",
		Evaluated:      true,
		DefaultOptions: seqpro.DefaultConfig(),
		New:            engine(ProtoSEQ, seqpro.New),
	},
	{
		Name:           ProtoBulkSC,
		Doc:            "BulkSC: centralized arbiter serializes commits, conservative invalidation (§2.2)",
		Evaluated:      true,
		DefaultOptions: bulksc.DefaultConfig(),
		New:            engine(ProtoBulkSC, bulksc.New),
		Tuning:         protocol.Tuning{ConservativeInv: true},
	},
	{
		Name: ProtoNoOCI,
		Doc:  "ScalableBulk ablation: Optimistic Commit Initiation off, conservative invalidation (Figure 4(c))",
		// OCI is off through Tuning; the option block, OCI:true included,
		// is ScalableBulk's, and journal config hashes cover it as written.
		DefaultOptions: core.DefaultConfig(),
		New:            scalableBulk(ProtoNoOCI),
		Tuning:         protocol.Tuning{ConservativeInv: true},
	},
}

// Protocols lists the evaluated protocols in the paper's Table 3 order.
var Protocols = evaluated()

func evaluated() []string {
	var out []string
	for _, d := range Descriptors {
		if d.Evaluated {
			out = append(out, d.Name)
		}
	}
	return out
}

// LookupProtocol returns the table row named name.
func LookupProtocol(name string) (Descriptor, bool) {
	for _, d := range Descriptors {
		if d.Name == name {
			return d, true
		}
	}
	return Descriptor{}, false
}

// ProtocolNames lists every runnable protocol in table order.
func ProtocolNames() []string {
	out := make([]string, len(Descriptors))
	for i, d := range Descriptors {
		out[i] = d.Name
	}
	return out
}

// engine adapts an engine package's typed constructor to Descriptor.New.
// Every option block carries the CommitDeadline its engine's kernel needs;
// a block that leaves it zero is an error here rather than a panic in the
// constructor.
func engine[C any, E protocol.Engine](name string, build func(*dir.Env, C) E) func(*dir.Env, any) (protocol.Engine, error) {
	return func(env *dir.Env, opts any) (protocol.Engine, error) {
		cfg, ok := opts.(C)
		if !ok {
			return nil, fmt.Errorf("%s: options must be %T, got %T", name, cfg, opts)
		}
		if reflect.ValueOf(cfg).FieldByName("CommitDeadline").Uint() == 0 {
			return nil, fmt.Errorf("%s: %T.CommitDeadline is zero; use protocol.DefaultCommitDeadline, or protocol.WatchdogDisabled to turn the watchdog off", name, cfg)
		}
		return build(env, cfg), nil
	}
}

// scalableBulk builds either ScalableBulk row. No engine code reads
// core.Config.OCI (OCI on or off is the row's Tuning), so a block with OCI
// off is an error rather than a run that silently keeps OCI on.
func scalableBulk(name string) func(*dir.Env, any) (protocol.Engine, error) {
	build := engine(name, core.New)
	return func(env *dir.Env, opts any) (protocol.Engine, error) {
		if c, ok := opts.(core.Config); ok && !c.OCI {
			return nil, fmt.Errorf("%s: core.Config.OCI=false has no effect; the OCI-off ablation is the %s protocol", name, ProtoNoOCI)
		}
		return build(env, opts)
	}
}
