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
// and the diagnostic verdict. The struct is always complete; the JSON form
// of the QueryResponse holding it leaves out the values a reader restores
// by rule.
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
	// Exact is true when the aggregate was computed over the whole table.
	// The engine sets it exactly when Technique is "exact", so JSON sends
	// it only when it disagrees with that.
	Exact bool
}

// GroupResult is one group's aggregates.
type GroupResult struct {
	Key  string
	Aggs []AggResult
}

// QueryResponse is the HTTP API's answer body: the answer and nothing the
// client already holds. The request's SQL is not echoed, the trace ID
// travels in the traceparent response header, and "fell back" is any
// aggregate whose Technique is "exact". The struct is always complete; its
// JSON form (MarshalJSON, UnmarshalJSON) leaves out what a reader restores
// by rule, and the float fields round-trip bit-exactly (see F64).
type QueryResponse struct {
	Groups         []GroupResult
	SampleRows     int
	PopulationRows int
	BootstrapKUsed int
	ElapsedMs      float64
}

// answerJSON is QueryResponse's JSON schema and the one home of its JSON
// rule: schema fills it, UnmarshalJSON reads it back. A left-out aggregate
// field is a nil pointer, so a sent value that happens to be a zero
// ("cause":"", "exact":false) is still sent. What an aggregate leaves out:
//
//   - Interval: lo and hi are left out when their bits equal the estimate's
//     (every exact answer, any zero-width interval), rel_err when its bits
//     are +0. Bits decide, not ==, so −0, NaN and ±Inf are sent whenever
//     they differ from the default's bits.
//   - Descriptor: name, technique, verdict and cause are left out when
//     they equal the same-position aggregate of the first group. The first
//     group is compared with the zero descriptor, so an ungrouped answer
//     sends every non-zero descriptor field. Any group decodes from itself
//     and groups[0] alone, in any order.
//   - Exactness: exact is left out when it equals technique == "exact",
//     as it does in every answer the engine gives. The rule reads the
//     aggregate's own technique, not the first group's exact.
type answerJSON struct {
	Groups         []groupJSON `json:"groups"`
	SampleRows     int         `json:"sample_rows,omitempty"`
	PopulationRows int         `json:"population_rows,omitempty"`
	BootstrapKUsed int         `json:"bootstrap_k_used,omitempty"`
	ElapsedMs      float64     `json:"elapsed_ms"`
}

type groupJSON struct {
	Key  string    `json:"key,omitempty"`
	Aggs []aggJSON `json:"aggs"`
}

type aggJSON struct {
	Name      *string `json:"name,omitempty"`
	Estimate  F64     `json:"estimate"`
	Lo        *F64    `json:"lo,omitempty"`
	Hi        *F64    `json:"hi,omitempty"`
	RelErr    *F64    `json:"rel_err,omitempty"`
	Technique *string `json:"technique,omitempty"`
	Verdict   *string `json:"verdict,omitempty"`
	Cause     *string `json:"cause,omitempty"`
	Exact     *bool   `json:"exact,omitempty"`
}

// sameBits reports whether two floats have identical bit patterns.
func sameBits(a, b F64) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// sent is v, or nil when the reader restores it by rule.
func sent[T any](v *T, restored bool) *T {
	if restored {
		return nil
	}
	return v
}

// or is the sent value, or the one the rule restores.
func or[T any](v *T, restored T) T {
	if v == nil {
		return restored
	}
	return *v
}

// exactTechnique is the technique of an aggregate computed over the whole
// table: AggResult.Exact is restored as Technique == exactTechnique.
const exactTechnique = "exact"

// descriptorRef is the aggregate whose descriptor the i-th aggregate of
// group g is compared with: the first group's, or the zero descriptor.
func descriptorRef(groups []GroupResult, g, i int) AggResult {
	if g > 0 && i < len(groups[0].Aggs) {
		return groups[0].Aggs[i]
	}
	return AggResult{}
}

// schema applies the JSON rule. The pointers it sends point into r.
func (r *QueryResponse) schema() answerJSON {
	w := answerJSON{SampleRows: r.SampleRows, PopulationRows: r.PopulationRows,
		BootstrapKUsed: r.BootstrapKUsed, ElapsedMs: r.ElapsedMs}
	if r.Groups != nil {
		w.Groups = make([]groupJSON, len(r.Groups))
	}
	for g := range r.Groups {
		gr := &r.Groups[g]
		gw := &w.Groups[g]
		gw.Key = gr.Key
		if gr.Aggs != nil {
			gw.Aggs = make([]aggJSON, len(gr.Aggs))
		}
		for i := range gr.Aggs {
			a, ref := &gr.Aggs[i], descriptorRef(r.Groups, g, i)
			gw.Aggs[i] = aggJSON{
				Name:      sent(&a.Name, a.Name == ref.Name),
				Estimate:  a.Estimate,
				Lo:        sent(&a.Lo, sameBits(a.Lo, a.Estimate)),
				Hi:        sent(&a.Hi, sameBits(a.Hi, a.Estimate)),
				RelErr:    sent(&a.RelErr, sameBits(a.RelErr, 0)),
				Technique: sent(&a.Technique, a.Technique == ref.Technique),
				Verdict:   sent(&a.Verdict, a.Verdict == ref.Verdict),
				Cause:     sent(&a.Cause, a.Cause == ref.Cause),
				Exact:     sent(&a.Exact, a.Exact == (a.Technique == exactTechnique)),
			}
		}
	}
	return w
}

// MarshalJSON implements json.Marshaler with the rule on answerJSON.
func (r QueryResponse) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.schema())
}

// UnmarshalJSON implements json.Unmarshaler: it restores every field the
// rule on answerJSON left out.
func (r *QueryResponse) UnmarshalJSON(b []byte) error {
	var w answerJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = QueryResponse{SampleRows: w.SampleRows, PopulationRows: w.PopulationRows,
		BootstrapKUsed: w.BootstrapKUsed, ElapsedMs: w.ElapsedMs}
	if w.Groups != nil {
		r.Groups = make([]GroupResult, len(w.Groups))
	}
	for g, gw := range w.Groups {
		gr := &r.Groups[g]
		gr.Key = gw.Key
		if gw.Aggs != nil {
			gr.Aggs = make([]AggResult, len(gw.Aggs))
		}
		for i, a := range gw.Aggs {
			ref := descriptorRef(r.Groups, g, i)
			technique := or(a.Technique, ref.Technique)
			gr.Aggs[i] = AggResult{
				Name:      or(a.Name, ref.Name),
				Estimate:  a.Estimate,
				Lo:        or(a.Lo, a.Estimate),
				Hi:        or(a.Hi, a.Estimate),
				RelErr:    or(a.RelErr, 0),
				Technique: technique,
				Verdict:   or(a.Verdict, ref.Verdict),
				Cause:     or(a.Cause, ref.Cause),
				Exact:     or(a.Exact, technique == exactTechnique),
			}
		}
	}
	return nil
}

// EncodeAnswer flattens an engine answer into its transport form.
func EncodeAnswer(ans *core.Answer) *QueryResponse {
	resp := &QueryResponse{
		SampleRows:     ans.SampleRows,
		PopulationRows: ans.PopulationRows,
		BootstrapKUsed: ans.BootstrapKUsed,
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
