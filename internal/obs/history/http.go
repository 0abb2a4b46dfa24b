package history

import (
	"encoding/json"
	"net/http"
)

// The three debug surfaces. They render JSON (pretty-printed: these are
// operator pages, not scrape targets — the machine-readable form of the
// same data is the aqp_history_*/aqp_slo_* metrics on /metrics).

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WorkloadHandler serves the profiler's snapshot: every profile, busiest
// first — the JSON twin of aqpshell's \profile table.
func (s *Store) WorkloadHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		profiles := s.Profiles()
		writeJSON(w, struct {
			Profiles []Profile `json:"profiles"`
			Count    int       `json:"count"`
		}{profiles, len(profiles)})
	})
}

// SLOHandler serves every declared SLO's current evaluation.
func (s *Store) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			SLOs []SLOStatus `json:"slos"`
		}{s.SLOStatuses()})
	})
}

// StatsHandler serves the store's bookkeeping. Metric rates are the
// scraper's to compute from /metrics.
func (s *Store) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, struct {
			Stats Stats `json:"stats"`
		}{s.Stats()})
	})
}
