package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The HTTP/JSON front end: POST /query submits SQL through the admission
// layer and returns per-aggregate estimates, CI bounds and verdicts;
// GET /healthz answers load-balancer probes and flips to 503 the moment a
// drain begins. Every admission outcome maps to a structured JSON error
// with a stable code (Classify) — never a bare connection reset — so
// clients can distinguish "back off and retry" (queue_full,
// shutting_down) from "your query is wrong" (bad_query).

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// SQL is the query text (required).
	SQL string `json:"sql"`
	// TimeoutMs, when positive, caps this request's execution time under
	// the server-wide Config.Timeout (it can only tighten the deadline).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// ErrorResponse is the JSON error body for every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is the transport-neutral rejection class from Classify, plus
	// the HTTP-only "bad_request" (malformed body) and "unauthorized".
	Code string `json:"code"`
	// Retryable marks load-shedding outcomes worth retrying after backoff.
	Retryable bool `json:"retryable,omitempty"`
}

// HTTPOptions tunes the HTTP front end.
type HTTPOptions struct {
	// Authorize, when set, vets every /query request before admission
	// (check a bearer token, map to a tenant, ...). A non-nil error
	// rejects with 401 and the error text.
	Authorize func(*http.Request) error
	// EventLog, when set, receives one conn-kind record per request
	// outcome class transition worth flagging (auth failures).
	EventLog *obs.EventLog
}

// maxBodyBytes bounds a /query request body: 1 MiB.
const maxBodyBytes = 1 << 20

// httpAPI is the handler state: the admission server plus cached metrics.
type httpAPI struct {
	s   *Server
	opt HTTPOptions

	inflight *obs.Gauge
	latency  *obs.Histogram
}

// NewHTTPHandler returns the HTTP/JSON front end for the server:
//
//	POST /query    {"sql": "...", "timeout_ms": 0}  →  QueryResponse
//	GET  /healthz  {"status":"ok"} or 503 {"status":"draining"}
//
// Metrics (on the server's Config.Metrics registry): aqp_http_inflight,
// aqp_http_requests_total{route,code}, aqp_http_request_seconds.
func NewHTTPHandler(s *Server, opt HTTPOptions) http.Handler {
	reg := s.cfg.Metrics
	api := &httpAPI{
		s:   s,
		opt: opt,
		inflight: reg.Gauge("aqp_http_inflight",
			"HTTP query requests currently being served."),
		latency: reg.Histogram("aqp_http_request_seconds",
			"End-to-end HTTP query latency (queue wait included).",
			obs.LatencyBuckets),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", api.handleQuery)
	mux.HandleFunc("/healthz", api.handleHealthz)
	return mux
}

// count meters one finished request.
func (a *httpAPI) count(route string, code int) {
	a.s.cfg.Metrics.Counter("aqp_http_requests_total",
		"HTTP requests by route and status code.",
		"route", route, "code", fmt.Sprintf("%d", code)).Inc()
}

// fail writes a structured JSON error.
func (a *httpAPI) fail(w http.ResponseWriter, route string, status int, code, msg string, retryable bool) {
	a.count(route, status)
	w.Header().Set("Content-Type", "application/json")
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	newEncoder(w).Encode(ErrorResponse{ //nolint:errcheck // best effort to a dying client
		Error: msg, Code: code, Retryable: retryable,
	})
}

// newEncoder returns the JSON encoder of every /query body. HTML escaping
// is off: the bodies are not HTML, and SQL echoed back keeps its < and >
// instead of growing them into six-byte unicode escapes.
func newEncoder(w io.Writer) *json.Encoder {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc
}

// writeAnswer writes one /query answer body. It encodes resp's schema, not
// resp: the output of resp's json.Marshaler would be compacted a second time.
func writeAnswer(w io.Writer, resp *QueryResponse) error {
	return newEncoder(w).Encode(resp.schema())
}

// httpStatus maps a Classify code to its HTTP status.
func httpStatus(code string) int {
	switch code {
	case "queue_full":
		return http.StatusTooManyRequests // 429
	case "shutting_down":
		return http.StatusServiceUnavailable // 503
	case "deadline":
		return http.StatusGatewayTimeout // 504
	case "cancelled":
		// The nginx convention for "client closed request"; no stdlib
		// constant exists.
		return 499
	default:
		return http.StatusBadRequest
	}
}

func (a *httpAPI) handleQuery(w http.ResponseWriter, r *http.Request) {
	const route = "/query"
	if r.Method != http.MethodPost {
		a.fail(w, route, http.StatusMethodNotAllowed, "bad_request",
			"POST a JSON body to /query", false)
		return
	}
	// Trace propagation: honour an incoming W3C traceparent (the caller's
	// span becomes our parent), mint a root otherwise, and echo the
	// server-side context on every response — success or failure — so the
	// client can join its records to ours.
	tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		tc = obs.NewTraceContext()
	}
	w.Header().Set("traceparent", tc.Traceparent())
	if a.opt.Authorize != nil {
		if err := a.opt.Authorize(r); err != nil {
			a.opt.EventLog.EmitConn(obs.ConnEvent{
				Transport: "http", Remote: r.RemoteAddr,
				Event: "auth_error", Err: err.Error(),
			})
			a.fail(w, route, http.StatusUnauthorized, "unauthorized",
				err.Error(), false)
			return
		}
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		a.fail(w, route, http.StatusBadRequest, "bad_request",
			"reading body: "+err.Error(), false)
		return
	}
	if len(body) > maxBodyBytes {
		a.fail(w, route, http.StatusRequestEntityTooLarge, "bad_request",
			fmt.Sprintf("body exceeds %d bytes", maxBodyBytes), false)
		return
	}
	var req QueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		a.fail(w, route, http.StatusBadRequest, "bad_request",
			"parsing JSON body: "+err.Error(), false)
		return
	}
	if req.SQL == "" {
		a.fail(w, route, http.StatusBadRequest, "bad_request",
			`missing "sql" field`, false)
		return
	}
	ctx := obs.ContextWithTrace(r.Context(), tc)
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx,
			time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	a.inflight.Inc()
	start := time.Now()
	ans, err := a.s.Submit(ctx, req.SQL)
	a.latency.Observe(time.Since(start).Seconds())
	a.inflight.Dec()
	if err != nil {
		code, retryable := Classify(err)
		a.fail(w, route, httpStatus(code), code, err.Error(), retryable)
		return
	}
	a.count(route, http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	resp := EncodeAnswer(ans)
	resp.TraceID = tc.TraceIDString()
	if err := writeAnswer(w, resp); err != nil {
		// Too late for a status change; the client sees a truncated body.
		return
	}
}

func (a *httpAPI) handleHealthz(w http.ResponseWriter, r *http.Request) {
	const route = "/healthz"
	w.Header().Set("Content-Type", "application/json")
	if a.s.Draining() {
		a.count(route, http.StatusServiceUnavailable)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	a.count(route, http.StatusOK)
	fmt.Fprintln(w, `{"status":"ok"}`)
}
