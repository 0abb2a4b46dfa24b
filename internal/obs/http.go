package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
)

// Debug-page list clamping, shared by every JSON debug surface that
// renders a variable-length list (/debug/queries here, /debug/cache in
// the engine): ?limit= (alias ?n=) selects the entry count, defaulting
// to DebugLimitDefault and clamped to DebugLimitMax so a stray request
// cannot serialize an unbounded document.
const (
	DebugLimitDefault = 64
	DebugLimitMax     = 1024
)

// LimitParam parses the shared ?limit= (alias ?n=) query parameter:
// missing or malformed values yield def, negatives yield 0, and
// anything above max clamps to max.
func LimitParam(q url.Values, def, max int) int {
	s := q.Get("limit")
	if s == "" {
		s = q.Get("n")
	}
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	if n < 0 {
		return 0
	}
	if n > max {
		return max
	}
	return n
}

// Route is an extra HTTP route mounted on the tracer's debug mux — the
// hook the engine uses to attach surfaces owned by other subsystems (the
// calibration watchdog's /debug/calibration page).
type Route struct {
	Pattern string
	Handler http.Handler
}

// Handler returns the tracer's HTTP surface:
//
//	/metrics                   Prometheus text exposition: the registry
//	                           plus Go runtime gauges (heap, GC, goroutines)
//	/debug/queries             recent query traces as JSON, newest first
//	                           (ordering matches Tracer.Recent). Filters:
//	                           ?outcome=ok|cancelled|error, ?trace_id=<hex>,
//	                           and ?limit= (?n= is an alias) applied after
//	                           the filters — default 64, capped at 1024
//	                           (the shared LimitParam clamp).
//	/debug/queries/{id}/trace  one query as Chrome trace-event JSON, for
//	                           chrome://tracing or ui.perfetto.dev
//	/debug/pprof/...           the standard net/http/pprof surface
//
// Extra routes are mounted verbatim after the built-ins.
func (t *Tracer) Handler(extra ...Route) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.Registry().WritePrometheus(w)
		WriteRuntimeMetrics(w)
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		outcome, tid := q.Get("outcome"), q.Get("trace_id")
		n := LimitParam(q, DebugLimitDefault, DebugLimitMax)
		traces := []TraceSnapshot{}
		for _, tr := range t.Recent() {
			if len(traces) < n && (outcome == "" || tr.Outcome == outcome) && (tid == "" || tr.TraceID == tid) {
				traces = append(traces, tr)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(traces); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/queries/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			http.Error(w, "bad query id", http.StatusBadRequest)
			return
		}
		for _, rec := range t.ring.snapshot() {
			if rec.QID == id {
				w.Header().Set("Content-Type", "application/json")
				if err := WriteChromeTrace(w, rec.Trace()); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
				}
				return
			}
		}
		http.Error(w, fmt.Sprintf("query %d not in the trace ring", id), http.StatusNotFound)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	return mux
}

// Server is a live metrics endpoint.
type Server struct {
	// Addr is the bound address (useful with a ":0" listen request).
	Addr string
	srv  *http.Server
}

// Serve starts an HTTP server for the tracer's Handler on addr, with any
// extra routes mounted alongside the built-ins. The returned Server
// reports the bound address and must be Closed by the caller.
func Serve(addr string, t *Tracer, extra ...Route) (*Server, error) {
	if t == nil {
		return nil, fmt.Errorf("obs: cannot serve a nil tracer")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener on %q: %w", addr, err)
	}
	srv := &http.Server{Handler: t.Handler(extra...)}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return &Server{Addr: ln.Addr().String(), srv: srv}, nil
}

// Close stops the server and its listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
