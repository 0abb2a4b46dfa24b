package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// doJSON posts a body to the handler and decodes the error envelope when
// the status is non-200.
func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, *ErrorResponse) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		return rec, nil
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("%s %s: status %d with non-JSON body %q", method, path, rec.Code, rec.Body.String())
	}
	return rec, &e
}

func TestHTTPQueryOK(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	defer eng.Close()
	s := New(eng, Config{})
	h := NewHTTPHandler(s, HTTPOptions{})

	body, _ := json.Marshal(QueryRequest{SQL: "SELECT AVG(Price) FROM Orders"})
	rec, _ := doJSON(t, h, http.MethodPost, "/query", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Groups) != 1 || len(out.Groups[0].Aggs) != 1 {
		t.Fatalf("shape: %+v", out)
	}
	a := out.Groups[0].Aggs[0]
	if a.Name != "avg" || a.Estimate == 0 || a.Verdict == "" {
		t.Fatalf("agg: %+v", a)
	}
	// The JSON round-trips losslessly: the F64 codec is shortest-form.
	re, _ := json.Marshal(out)
	var back QueryResponse
	if err := json.Unmarshal(re, &back); err != nil {
		t.Fatal(err)
	}
	if back.Groups[0].Aggs[0].Estimate != a.Estimate {
		t.Fatal("estimate not bit-stable across JSON round trip")
	}
}

func TestHTTPRequestErrors(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	defer eng.Close()
	s := New(eng, Config{})
	h := NewHTTPHandler(s, HTTPOptions{})

	cases := []struct {
		name, method, body string
		status             int
	}{
		{"method", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "{not json", http.StatusBadRequest},
		{"missing sql", http.MethodPost, "{}", http.StatusBadRequest},
		{"oversize body", http.MethodPost,
			fmt.Sprintf(`{"sql":%q}`, strings.Repeat("x", maxBodyBytes)), http.StatusRequestEntityTooLarge},
		{"parse error", http.MethodPost, `{"sql":"SELECT FROM WHERE"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec, e := doJSON(t, h, tc.method, "/query", tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d want %d (%s)", tc.name, rec.Code, tc.status, rec.Body.String())
			continue
		}
		if e.Code == "" {
			t.Errorf("%s: error envelope missing code", tc.name)
		}
		if e.Retryable {
			t.Errorf("%s: client errors must not be marked retryable", tc.name)
		}
	}
}

func TestHTTPAuthorize(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	defer eng.Close()
	s := New(eng, Config{})
	h := NewHTTPHandler(s, HTTPOptions{
		Authorize: func(r *http.Request) error {
			if r.Header.Get("Authorization") != "Bearer open-sesame" {
				return fmt.Errorf("bad token")
			}
			return nil
		},
	})

	body, _ := json.Marshal(QueryRequest{SQL: "SELECT AVG(Price) FROM Orders"})
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("no token: status %d want 401", rec.Code)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != "unauthorized" {
		t.Fatalf("401 envelope: %s (%v)", rec.Body.String(), err)
	}

	req = httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer open-sesame")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("with token: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestHTTPQueueFull(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	defer eng.Close()
	s := New(eng, Config{MaxInFlight: 1, MaxQueue: -1, Metrics: obs.NewRegistry()})
	h := NewHTTPHandler(s, HTTPOptions{})

	// Hold the only slot so the next request is shed.
	if err := s.acquire(t.Context()); err != nil {
		t.Fatal(err)
	}
	defer s.release()

	body, _ := json.Marshal(QueryRequest{SQL: "SELECT AVG(Price) FROM Orders"})
	rec, e := doJSON(t, h, http.MethodPost, "/query", string(body))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d want 429: %s", rec.Code, rec.Body.String())
	}
	if e.Code != "queue_full" || !e.Retryable {
		t.Fatalf("envelope: %+v", e)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
}

func TestHTTPHealthz(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	defer eng.Close()
	s := New(eng, Config{})
	h := NewHTTPHandler(s, HTTPOptions{})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("healthz during drain: %d %s", rec.Code, rec.Body.String())
	}
}

func TestHTTPPerRequestTimeout(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	defer eng.Close()
	// A crawling engine stand-in: hold the slot so Submit waits in the
	// queue past the request's own deadline.
	s := New(eng, Config{MaxInFlight: 1, MaxQueue: 4})
	h := NewHTTPHandler(s, HTTPOptions{})
	if err := s.acquire(t.Context()); err != nil {
		t.Fatal(err)
	}
	defer s.release()

	body, _ := json.Marshal(QueryRequest{SQL: "SELECT AVG(Price) FROM Orders", TimeoutMs: 20})
	rec, e := doJSON(t, h, http.MethodPost, "/query", string(body))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d want 504: %s", rec.Code, rec.Body.String())
	}
	if e.Code != "deadline" {
		t.Fatalf("envelope: %+v", e)
	}
}
