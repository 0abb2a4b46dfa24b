package watchdog

import (
	"encoding/json"
	"net/http"

	"repro/internal/estimator"
)

// KeyStatus is one (aggregate, sample) population's rolling summary as
// rendered by /debug/calibration.
type KeyStatus struct {
	Key Key `json:"key"`
	// Observations is the lifetime count of queries folded into this key.
	Observations int64 `json:"observations"`
	// RejectRate is the rolling diagnostic reject rate and RejectWindow
	// the number of trials it covers.
	RejectRate   float64 `json:"reject_rate"`
	RejectWindow int     `json:"reject_window"`
	// BaselineRejectRate is the frozen first-window reject rate drift is
	// measured against, and RejectLo/Hi the drift band around it; all
	// three are meaningful once BaselineSet.
	BaselineRejectRate float64 `json:"baseline_reject_rate"`
	BaselineSet        bool    `json:"baseline_set"`
	RejectLo           float64 `json:"reject_lo"`
	RejectHi           float64 `json:"reject_hi"`
	// Coverage is the rolling empirical coverage over audited queries,
	// CoverageWindow the audited-trial count, and CoverageLo/Hi the
	// binomial tolerance band currently in force.
	Coverage       float64 `json:"coverage"`
	CoverageWindow int     `json:"coverage_window"`
	CoverageLo     float64 `json:"coverage_lo"`
	CoverageHi     float64 `json:"coverage_hi"`
	// AuditsTotal counts lifetime audited trials for the key.
	AuditsTotal int64 `json:"audits_total"`
	// MeanRelWidth is the rolling mean relative CI half-width.
	MeanRelWidth float64 `json:"mean_rel_width"`
	// Techniques counts queries by error-estimation technique.
	Techniques map[string]int64 `json:"techniques,omitempty"`
}

// Status is the full watchdog state snapshot behind /debug/calibration.
type Status struct {
	Nominal       float64     `json:"nominal"`
	Tolerance     float64     `json:"tolerance"`
	Window        int         `json:"window"`
	MinAudits     int         `json:"min_audits"`
	AuditFraction float64     `json:"audit_fraction"`
	Observations  uint64      `json:"observations"`
	Keys          []KeyStatus `json:"keys"`
}

// Status snapshots the watchdog's rolling state: every key's coverage,
// reject rate and bands. The alerts they raise live on the alert bus
// (/debug/alerts).
func (w *Watchdog) Status() Status {
	if w == nil {
		return Status{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Status{
		Nominal:       estimator.ConfidenceLevel,
		Tolerance:     w.cfg.tolerance(),
		Window:        w.cfg.window(),
		MinAudits:     w.cfg.minAudits(),
		AuditFraction: w.cfg.AuditFraction,
		Observations:  w.seq,
		Keys:          make([]KeyStatus, 0, len(w.keyOrder)),
	}
	for _, k := range w.keyOrder {
		ks := w.keys[k]
		rej, rejN := ks.verdicts.rate()
		cov, covN := ks.coverage.rate()
		lo, hi := Band(estimator.ConfidenceLevel, covN, w.cfg.tolerance())
		var rejLo, rejHi float64
		if ks.baselineSet {
			rejLo, rejHi = driftBand(ks.baselineRejects, rejN, w.cfg.tolerance())
		}
		tech := make(map[string]int64, len(ks.techniques))
		for t, n := range ks.techniques {
			tech[t] = n
		}
		st.Keys = append(st.Keys, KeyStatus{
			Key:                k,
			Observations:       ks.verdicts.total,
			RejectRate:         rej,
			RejectWindow:       rejN,
			BaselineRejectRate: ks.baselineRejects,
			BaselineSet:        ks.baselineSet,
			RejectLo:           rejLo,
			RejectHi:           rejHi,
			Coverage:           cov,
			CoverageWindow:     covN,
			CoverageLo:         lo,
			CoverageHi:         hi,
			AuditsTotal:        ks.coverage.total,
			MeanRelWidth:       ks.relWidth.mean(),
			Techniques:         tech,
		})
	}
	return st
}

// Handler serves the watchdog's Status as indented JSON — mount it at
// /debug/calibration via obs.Route.
func (w *Watchdog) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		if err := enc.Encode(w.Status()); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
		}
	})
}
