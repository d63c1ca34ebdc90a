package metrics

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// Serve exposes the registry over HTTP on addr (the -telemetry flag):
//
//	/metrics       deterministic JSON snapshot of the registry
//	/metrics.prom  Prometheus text exposition (version 0.0.4)
//	/debug/pprof   live CPU/heap/goroutine profiling for multi-hour soaks
//
// It returns the bound address (useful with ":0") and a shutdown func. The
// server runs on its own goroutine and never touches the simulator's
// single-threaded internals — only the atomic registry.
func Serve(addr string, reg *Registry) (string, func() error, error) {
	mux := Handler(reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}

// Handler builds the telemetry mux Serve exposes — /metrics JSON snapshot,
// /metrics.prom, /debug/pprof — without binding a listener, so servers
// that own their own mux (the sweep farm's sbserver) can mount telemetry
// alongside their API endpoints.
func Handler(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.prom", PromHandler(reg))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(data, '\n'))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
