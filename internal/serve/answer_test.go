package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/table"
)

// sameF64 reports whether a float survived a text transport: identical
// bits, or NaN for NaN (text carries no NaN payload).
func sameF64(got, want F64) bool {
	g, w := float64(got), float64(want)
	return sameBits(got, want) || math.IsNaN(g) && math.IsNaN(w)
}

// FuzzAggResultJSON: whatever the float bits, decoding an encoded aggregate
// restores estimate, lo, hi and rel_err bit for bit (NaN as NaN) — whether
// the encoder sent a value or left it to the default rule — and the string
// and bool fields unchanged.
func FuzzAggResultJSON(f *testing.F) {
	bits := math.Float64bits
	negZero := bits(math.Copysign(0, -1))
	nan, inf, ninf := bits(math.NaN()), bits(math.Inf(1)), bits(math.Inf(-1))
	for _, c := range []struct {
		est, lo, hi, rel uint64
		name, cause      string
		exact            bool
	}{
		{bits(2.5), bits(2.5), bits(2.5), 0, "avg", "", true},               // exact answer
		{bits(2.5), bits(2), bits(3), bits(0.2), "avg", "", false},          // accepted estimate
		{bits(2.5), bits(2.5), bits(3), bits(0.2), "a", "pi", false},        // lo == estimate, hi not
		{bits(2.5), bits(2), bits(2.5), 0, "a", "delta", true},              // hi == estimate, lo not
		{bits(1), nan, nan, nan, "sum", "", false},                          // technique none
		{0, nan, nan, nan, "sum", "too_few_rows", false},                    // zero estimate, no interval
		{negZero, negZero, 0, 0, "m", "", true},                             // −0 estimate: hi is +0
		{0, negZero, negZero, negZero, "m", "", true},                       // −0 around a +0 estimate
		{nan, nan, nan, nan, "p", "sigma", false},                           // all NaN
		{inf, ninf, inf, inf, "max", "degenerate_truth", false},             // infinities
		{1, 2, 3, 4, "tiny", "", false},                                     // subnormals
		{bits(1e300), bits(-1e300), bits(1e300), bits(2), "big", "", false}, // extremes
		{bits(1), bits(1), bits(1), 0, "q\"\\<&>\n\u2028é", "x", false},     // escaped strings
	} {
		f.Add(c.est, c.lo, c.hi, c.rel, c.name, "closed-form", "accept", c.cause, c.exact)
	}
	f.Fuzz(func(t *testing.T, est, lo, hi, rel uint64, name, technique, verdict, cause string, exact bool) {
		for _, s := range []string{name, technique, verdict, cause} {
			if !utf8.ValidString(s) {
				t.Skip("JSON strings are UTF-8; encoding/json replaces invalid bytes")
			}
		}
		a := AggResult{
			Name: name, Estimate: F64(math.Float64frombits(est)),
			Lo: F64(math.Float64frombits(lo)), Hi: F64(math.Float64frombits(hi)),
			RelErr:    F64(math.Float64frombits(rel)),
			Technique: technique, Verdict: verdict, Cause: cause, Exact: exact,
		}
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("marshal %+v: %v", a, err)
		}
		var back AggResult
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		for _, f := range []struct {
			what      string
			got, want F64
		}{
			{"estimate", back.Estimate, a.Estimate}, {"lo", back.Lo, a.Lo},
			{"hi", back.Hi, a.Hi}, {"rel_err", back.RelErr, a.RelErr},
		} {
			if !sameF64(f.got, f.want) {
				t.Errorf("%s: got %x want %x (body %s)", f.what,
					math.Float64bits(float64(f.got)), math.Float64bits(float64(f.want)), b)
			}
		}
		if back.Name != a.Name || back.Technique != a.Technique || back.Verdict != a.Verdict ||
			back.Cause != a.Cause || back.Exact != a.Exact {
			t.Errorf("fields: got %+v want %+v (body %s)", back, a, b)
		}
	})
}

// TestAggResultOmitsDefaults pins the default rule on the encoded form: a
// key is left out exactly when its bits equal the default's.
func TestAggResultOmitsDefaults(t *testing.T) {
	negZero := F64(math.Copysign(0, -1))
	for _, c := range []struct {
		a    AggResult
		want string
	}{
		{AggResult{Name: "a", Estimate: 2, Lo: 2, Hi: 2, Technique: "exact", Verdict: "accept", Exact: true},
			`{"name":"a","estimate":2,"technique":"exact","verdict":"accept","exact":true}`},
		{AggResult{Name: "a", Estimate: 2, Lo: 2, Hi: 3, RelErr: 0.5, Technique: "bootstrap", Verdict: "reject", Cause: "pi"},
			`{"name":"a","estimate":2,"hi":3,"rel_err":0.5,"technique":"bootstrap","verdict":"reject","cause":"pi"}`},
		{AggResult{Name: "a", Estimate: negZero, Lo: negZero, Hi: 0, RelErr: negZero, Technique: "exact", Verdict: "accept"},
			`{"name":"a","estimate":-0,"hi":0,"rel_err":-0,"technique":"exact","verdict":"accept"}`},
		{AggResult{Name: "s", Estimate: 0, Lo: F64(math.NaN()), Hi: F64(math.NaN()), RelErr: F64(math.NaN()), Technique: "none", Verdict: "accept"},
			`{"name":"s","estimate":0,"lo":"NaN","hi":"NaN","rel_err":"NaN","technique":"none","verdict":"accept"}`},
	} {
		b, err := json.Marshal(c.a)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("encoded %+v as\n %s\nwant\n %s", c.a, b, c.want)
		}
	}
}

// TestHTTPExactAnswerShape: an exact aggregate's JSON object carries no
// lo, hi, rel_err or reason key — the reader restores the first three from
// the estimate and zero — and SQL is echoed without HTML escaping.
func TestHTTPExactAnswerShape(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	defer eng.Close()
	ledger := table.MustNew(table.Schema{{Name: "Amount", Type: table.Float64}},
		table.Float64Col{1, 2, 3, 4.5})
	if err := eng.RegisterTable("Ledger", ledger); err != nil { // no sample: exact
		t.Fatal(err)
	}
	h := NewHTTPHandler(New(eng, Config{}), HTTPOptions{})
	const q = "SELECT SUM(Amount) FROM Ledger WHERE Amount >= 2"
	body, _ := json.Marshal(QueryRequest{SQL: q})
	rec, _ := doJSON(t, h, http.MethodPost, "/query", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	raw := rec.Body.String()
	if !strings.Contains(raw, q) {
		t.Errorf("body does not echo %q verbatim: %s", q, raw)
	}
	var shape struct {
		Groups []struct {
			Aggs []map[string]json.RawMessage `json:"aggs"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &shape); err != nil {
		t.Fatal(err)
	}
	if len(shape.Groups) != 1 || len(shape.Groups[0].Aggs) != 1 {
		t.Fatalf("shape: %s", raw)
	}
	obj := shape.Groups[0].Aggs[0]
	for _, key := range []string{"lo", "hi", "rel_err", "reason", "cause"} {
		if _, ok := obj[key]; ok {
			t.Errorf("exact aggregate carries %q: %s", key, raw)
		}
	}
	if string(obj["estimate"]) != "9.5" || string(obj["exact"]) != "true" {
		t.Errorf("exact aggregate: %s", raw)
	}
	var out QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	a := out.Groups[0].Aggs[0]
	if a.Lo != 9.5 || a.Hi != 9.5 || !sameBits(a.RelErr, 0) || !a.Exact || a.Technique != "exact" {
		t.Errorf("decoded exact aggregate: %+v", a)
	}
}

// TestHTTPErrorEchoesOperators: a bad_query body quotes the user's SQL with
// its comparison operators as typed.
func TestHTTPErrorEchoesOperators(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	defer eng.Close()
	h := NewHTTPHandler(New(eng, Config{}), HTTPOptions{})
	body, _ := json.Marshal(QueryRequest{SQL: "SELECT AVG(P) FROM Nope WHERE P > 3 AND P < 9"})
	rec, e := doJSON(t, h, http.MethodPost, "/query", string(body))
	if rec.Code != http.StatusBadRequest || e.Code != "bad_query" {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if raw := rec.Body.String(); !strings.Contains(raw, "P > 3 AND P < 9") {
		t.Errorf("error body does not carry the operators verbatim: %s", raw)
	}
}
