// Command sbtrace runs a small machine with structured tracing enabled and
// writes the event stream — the message-level view of Figures 3, 4 and 5,
// now backed by the trace package, so the same run can render as the classic
// text log, as machine-readable JSONL, or as Chrome trace-event JSON for
// Perfetto / chrome://tracing.
//
// Usage:
//
//	sbtrace -app Barnes -cores 8 -chunks 2 | head -100
//	sbtrace -app Barnes -cores 8 -format perfetto -o trace.json
//	sbtrace -format jsonl -kind squash,commit -core 3
//
// Delivery events are emitted at delivery time (after contention retiming
// and fault rewrites), so with -reads the printed cycle numbers match the
// actual arrival order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"scalablebulk/internal/cache"
	"scalablebulk/internal/cliutil"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/system"
	"scalablebulk/internal/trace"
	"scalablebulk/internal/workload"
)

// traceOpts is everything the CLI configures; factored out so tests drive the
// same pipeline the command runs.
type traceOpts struct {
	app, protocol string
	cores, chunks int
	seed          int64
	reads         bool
	format        string // "text", "jsonl" or "perfetto"
	coreF         int    // -1: all
	kinds         string // comma-separated kind names, "" = all
	chunk         string // "P3.7", "" = all
}

// buildSink assembles the format sink behind a Filter: the run hands the sink
// every event, and the Filter keeps read-path messages only with -reads.
func buildSink(w io.Writer, o traceOpts) (trace.Sink, error) {
	var sink trace.Sink
	switch o.format {
	case "text":
		sink = trace.NewText(w)
	case "jsonl":
		sink = trace.NewJSONL(w)
	case "perfetto":
		sink = trace.NewPerfetto(w)
	default:
		return nil, fmt.Errorf("unknown format %q (want text, jsonl or perfetto)", o.format)
	}
	f := trace.NewFilter(sink)
	f.Reads = o.reads
	f.Core = o.coreF
	if o.kinds != "" {
		f.Kinds = make(map[trace.Kind]bool)
		for _, name := range strings.Split(o.kinds, ",") {
			k, ok := trace.KindByName(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("unknown event kind %q", name)
			}
			f.Kinds[k] = true
		}
	}
	if o.chunk != "" {
		var proc int
		var seq uint64
		if _, err := fmt.Sscanf(o.chunk, "P%d.%d", &proc, &seq); err != nil {
			return nil, fmt.Errorf("bad chunk %q (want P<proc>.<seq>): %v", o.chunk, err)
		}
		f.Chunk = &msg.CTag{Proc: proc, Seq: seq}
	}
	return f, nil
}

// runTrace runs the machine with the sink attached and returns the result.
func runTrace(o traceOpts, sink trace.Sink) (*system.Result, error) {
	prof, ok := workload.ByName(o.app)
	if !ok {
		return nil, fmt.Errorf("unknown app %q", o.app)
	}
	cfg := system.DefaultConfig(o.cores, o.protocol)
	cfg.ChunksPerCore = o.chunks
	cfg.Seed = o.seed
	// Tiny caches keep the trace interesting (more sharing).
	cfg.L1 = cache.Config{SizeBytes: 8 << 10, Assoc: 4}
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
	cfg.TraceSink = sink
	return system.Run(prof, cfg)
}

func main() {
	o := traceOpts{}
	flag.StringVar(&o.app, "app", "Barnes", "application model")
	flag.StringVar(&o.protocol, "proto", system.ProtoScalableBulk,
		"commit protocol (see -protocols for the registry)")
	flag.IntVar(&o.cores, "cores", 8, "number of processors")
	flag.IntVar(&o.chunks, "chunks", 2, "chunks per core")
	flag.Int64Var(&o.seed, "seed", 1, "deterministic seed")
	flag.BoolVar(&o.reads, "reads", false, "also trace read-path messages")
	flag.StringVar(&o.format, "format", "text", "output format: text, jsonl or perfetto")
	flag.IntVar(&o.coreF, "core", -1, "keep only events touching this tile")
	flag.StringVar(&o.kinds, "kind", "", "comma-separated event kinds to keep (e.g. commit,squash)")
	flag.StringVar(&o.chunk, "chunk", "", "keep only events about this chunk (e.g. P3.7)")
	out := flag.String("o", "", "output file (default stdout)")
	protoList := flag.Bool("protocols", false, "list registered commit protocols and exit")
	flag.Parse()

	if *protoList {
		fmt.Print(cliutil.ProtocolList())
		return
	}
	if err := cliutil.CheckProtocol(o.protocol); err != nil {
		fmt.Fprintln(os.Stderr, "sbtrace:", err)
		os.Exit(1)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	sink, err := buildSink(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := runTrace(o, sink)
	if cerr := sink.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%8d  all %d chunks committed; %d messages, %d squashes\n",
		res.Cycles, res.ChunksCommitted, res.Traffic.Messages, res.Squashes)
}
