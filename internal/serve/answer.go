package serve

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/core"
)

// Transport-neutral answer encoding, shared by the HTTP/JSON API and the
// MySQL wire listener (internal/wire). Both front ends must render the
// engine's answers so that a client parsing them back recovers the exact
// float64 bits core.Run produced — the end-to-end equality tests pin this.
// strconv's shortest round-trip formatting ('g', precision -1) guarantees
// it for finite values; NaN and ±Inf (legal RelErr values: "none"
// technique, zero-centered estimates) get explicit spellings that
// strconv.ParseFloat accepts back.

// FormatF64 renders a float64 in shortest round-trip form: ParseFloat of
// the result returns the identical bits. Non-finite values render as
// "NaN", "+Inf", "-Inf".
func FormatF64(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// F64 is a float64 that survives JSON: finite values marshal as shortest
// round-trip numbers, non-finite values as the quoted strings "NaN",
// "+Inf", "-Inf" (encoding/json rejects bare non-finite numbers).
// Unmarshal accepts both forms.
type F64 float64

// MarshalJSON implements json.Marshaler.
func (f F64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return json.Marshal(FormatF64(v))
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *F64) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(b) > 0 && b[0] == '"' {
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*f = F64(v)
	return nil
}

// Verdict canonicalizes one aggregate's diagnostic outcome for transport:
// "accept" when the runtime diagnostic passed (or was inapplicable),
// "reject" when it refused error estimation — matching the event log's
// verdict vocabulary. Exactness travels separately (AggResult.Exact, the
// wire _exact column): a rejected aggregate that fell back to exact
// execution reports verdict=reject AND exact=true.
func Verdict(a core.AggAnswer) string {
	if !a.DiagnosticOK {
		return "reject"
	}
	return "accept"
}

// AggResult is one aggregate of a query response: the estimate, its α
// confidence interval, the relative error bound, the estimation technique
// and the diagnostic verdict. The struct is always complete; its JSON form
// (MarshalJSON) leaves out the values a reader restores by rule.
type AggResult struct {
	Name      string
	Estimate  F64
	Lo, Hi    F64
	RelErr    F64
	Technique string
	Verdict   string
	// Cause types a rejection with a diagnostic.Cause name ("too_few_rows",
	// "pi", "delta", ...; "" when accepted). The prose explanation stays on
	// core.AggAnswer.DiagnosticReason and the verdict span.
	Cause string
	Exact bool
}

// aggJSON is AggResult's JSON schema. The interval ends and the relative
// error are pointers so that decoding can tell an absent key from a sent one.
type aggJSON struct {
	Name      string `json:"name"`
	Estimate  F64    `json:"estimate"`
	Lo        *F64   `json:"lo,omitempty"`
	Hi        *F64   `json:"hi,omitempty"`
	RelErr    *F64   `json:"rel_err,omitempty"`
	Technique string `json:"technique"`
	Verdict   string `json:"verdict"`
	Cause     string `json:"cause,omitempty"`
	Exact     bool   `json:"exact,omitempty"`
}

// sameBits reports whether two floats have identical bit patterns.
func sameBits(a, b F64) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// MarshalJSON leaves out defaults: lo and hi when their bits equal the
// estimate's (every exact answer, any zero-width interval), rel_err when its
// bits are +0. Bits decide, not ==, so −0, NaN and ±Inf are sent whenever
// they differ from the default's bits, and UnmarshalJSON restores exactly
// the bits left out.
func (a AggResult) MarshalJSON() ([]byte, error) {
	w := aggJSON{Name: a.Name, Estimate: a.Estimate, Technique: a.Technique,
		Verdict: a.Verdict, Cause: a.Cause, Exact: a.Exact}
	if !sameBits(a.Lo, a.Estimate) {
		w.Lo = &a.Lo
	}
	if !sameBits(a.Hi, a.Estimate) {
		w.Hi = &a.Hi
	}
	if !sameBits(a.RelErr, 0) {
		w.RelErr = &a.RelErr
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler: an absent lo or hi is the
// estimate, an absent rel_err is +0.
func (a *AggResult) UnmarshalJSON(b []byte) error {
	var w aggJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*a = AggResult{Name: w.Name, Estimate: w.Estimate, Lo: w.Estimate, Hi: w.Estimate,
		Technique: w.Technique, Verdict: w.Verdict, Cause: w.Cause, Exact: w.Exact}
	if w.Lo != nil {
		a.Lo = *w.Lo
	}
	if w.Hi != nil {
		a.Hi = *w.Hi
	}
	if w.RelErr != nil {
		a.RelErr = *w.RelErr
	}
	return nil
}

// GroupResult is one group's aggregates.
type GroupResult struct {
	Key  string      `json:"key,omitempty"`
	Aggs []AggResult `json:"aggs"`
}

// QueryResponse is the HTTP API's answer body. The float fields round-trip
// bit-exactly (see F64).
type QueryResponse struct {
	SQL            string        `json:"sql"`
	Groups         []GroupResult `json:"groups"`
	SampleRows     int           `json:"sample_rows,omitempty"`
	PopulationRows int           `json:"population_rows,omitempty"`
	BootstrapKUsed int           `json:"bootstrap_k_used,omitempty"`
	SharedScan     bool          `json:"shared_scan,omitempty"`
	FellBack       bool          `json:"fell_back,omitempty"`
	ElapsedMs      float64       `json:"elapsed_ms"`
	// TraceID is the query's W3C trace ID, set by the transport (not by
	// EncodeAnswer): the join key into /debug/queries, the event log, the
	// durable history, and any exported spans.
	TraceID string `json:"trace_id,omitempty"`
}

// EncodeAnswer flattens an engine answer into its transport form.
func EncodeAnswer(ans *core.Answer) *QueryResponse {
	resp := &QueryResponse{
		SQL:            ans.SQL,
		SampleRows:     ans.SampleRows,
		PopulationRows: ans.PopulationRows,
		BootstrapKUsed: ans.BootstrapKUsed,
		SharedScan:     ans.SharedScan,
		FellBack:       ans.FellBack(),
		ElapsedMs:      float64(ans.Elapsed) / 1e6,
	}
	for _, g := range ans.Groups {
		gr := GroupResult{Key: g.Key}
		for _, a := range g.Aggs {
			gr.Aggs = append(gr.Aggs, AggResult{
				Name:      a.Name,
				Estimate:  F64(a.Estimate),
				Lo:        F64(a.ErrorBar.Lo()),
				Hi:        F64(a.ErrorBar.Hi()),
				RelErr:    F64(a.RelErr),
				Technique: a.Technique,
				Verdict:   Verdict(a),
				Cause:     a.DiagnosticCause,
				Exact:     a.Exact,
			})
		}
		resp.Groups = append(resp.Groups, gr)
	}
	return resp
}
