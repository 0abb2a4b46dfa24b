package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
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

// responseDiff describes the first field in which a decoded response differs
// from the one encoded, or returns "".
func responseDiff(got, want *QueryResponse) string {
	if got.SampleRows != want.SampleRows || got.PopulationRows != want.PopulationRows ||
		got.BootstrapKUsed != want.BootstrapKUsed ||
		got.ElapsedMs != want.ElapsedMs {
		return fmt.Sprintf("header: got %+v want %+v", *got, *want)
	}
	if len(got.Groups) != len(want.Groups) {
		return fmt.Sprintf("%d groups, want %d", len(got.Groups), len(want.Groups))
	}
	for g := range want.Groups {
		gg, wg := got.Groups[g], want.Groups[g]
		if gg.Key != wg.Key || len(gg.Aggs) != len(wg.Aggs) {
			return fmt.Sprintf("group %d: got %+v want %+v", g, gg, wg)
		}
		for i, w := range wg.Aggs {
			a := gg.Aggs[i]
			for _, f := range []struct {
				what      string
				got, want F64
			}{
				{"estimate", a.Estimate, w.Estimate}, {"lo", a.Lo, w.Lo},
				{"hi", a.Hi, w.Hi}, {"rel_err", a.RelErr, w.RelErr},
			} {
				if !sameF64(f.got, f.want) {
					return fmt.Sprintf("group %d agg %d %s: got %x want %x", g, i, f.what,
						math.Float64bits(float64(f.got)), math.Float64bits(float64(f.want)))
				}
			}
			if a.Name != w.Name || a.Technique != w.Technique || a.Verdict != w.Verdict ||
				a.Cause != w.Cause || a.Exact != w.Exact {
				return fmt.Sprintf("group %d agg %d: got %+v want %+v", g, i, a, w)
			}
		}
	}
	return ""
}

// fuzzBits hands out a fuzz input's bits n at a time, stretching them with
// an LCG step once they run out.
type fuzzBits struct {
	v    uint64
	left int
}

func (b *fuzzBits) next(n int) uint64 {
	if b.left < n {
		b.v = b.v*6364136223846793005 + 1442695040888963407
		b.left = 64
	}
	out := b.v & (1<<n - 1)
	b.v >>= n
	b.left -= n
	return out
}

// FuzzAnswerJSON: whatever the float bits and strings, an answer of 1–3
// groups × 1–2 aggregates decodes back to its own bits (NaN as NaN) and
// strings, whether the encoder sent a value or left it to the rule; and
// every group also decodes from a body holding only groups[0] and itself.
// Exact is drawn apart from Technique, which is "exact" a quarter of the
// time, so the exact flag is fuzzed both where the rule restores it and
// where it disagrees with the technique and must be sent.
func FuzzAnswerJSON(f *testing.F) {
	bits := math.Float64bits
	f64s := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	negZero := bits(math.Copysign(0, -1))
	nan, inf, ninf := bits(math.NaN()), bits(math.Inf(1)), bits(math.Inf(-1))
	// Each seed's first group has key s1 and its first aggregate carries
	// name and verdict s1, cause s2, technique "exact" (techExact) or s1,
	// the exact flag and the floats as given. The shape (seed index mod 6)
	// adds groups and aggregates that reuse the floats; a one-aggregate
	// group repeats the first group's picks, so a later group inherits an
	// exact technique that decides its exact flag.
	for i, c := range []struct {
		est, lo, hi, rel uint64
		name, cause      string
		techExact, exact bool
	}{
		{bits(2.5), bits(2.5), bits(2.5), 0, "avg", "", true, true},                // exact answer
		{bits(2.5), bits(2), bits(3), bits(0.2), "avg", "", false, false},          // accepted estimate
		{bits(2.5), bits(2.5), bits(3), bits(0.2), "a", "pi", false, false},        // lo == estimate, hi not
		{bits(2.5), bits(2), bits(2.5), 0, "a", "delta", false, true},              // exact without the technique
		{bits(1), nan, nan, nan, "sum", "", false, false},                          // technique none
		{0, nan, nan, nan, "sum", "too_few_rows", true, false},                     // the technique without exact
		{negZero, negZero, 0, 0, "m", "", true, true},                              // −0 estimate: hi is +0
		{0, negZero, negZero, negZero, "m", "", true, true},                        // −0 around a +0 estimate
		{nan, nan, nan, nan, "p", "sigma", false, false},                           // all NaN
		{inf, ninf, inf, inf, "max", "degenerate_truth", false, false},             // infinities
		{1, 2, 3, 4, "tiny", "", false, false},                                     // subnormals
		{bits(1e300), bits(-1e300), bits(1e300), bits(2), "big", "", false, false}, // extremes
		{bits(1), bits(1), bits(1), 0, "q\"\\<&>\n\u2028é", "x", true, true},       // escaped strings
	} {
		// Bits 0–1 key, 2–3 name, 4–5 technique, 6–7 verdict, 8–9 cause,
		// 10 exact, 11–13 interval defaults; the next group starts at 14.
		pick := uint64(1) << 8
		if c.techExact {
			pick |= 3 << 4
		}
		if c.exact {
			pick |= 1 << 10
		}
		pick |= pick<<14 | pick<<28
		f.Add(uint8(i%6), f64s(pick), f64s(c.est, c.lo, c.hi, c.rel), c.name, c.cause)
	}
	// pick is bytes, not a uint64: the fuzzer moves an integer by at most
	// 100, which never reaches the bits of a later group.
	f.Fuzz(func(t *testing.T, shape uint8, pick []byte, floats []byte, s1, s2 string) {
		if !utf8.ValidString(s1) || !utf8.ValidString(s2) {
			t.Skip("JSON strings are UTF-8; encoding/json replaces invalid bytes")
		}
		word := 0
		float := func() F64 {
			var b [8]byte
			for j := range b {
				if len(floats) > 0 {
					b[j] = floats[(8*word+j)%len(floats)]
				}
			}
			word++
			return F64(math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
		}
		var p [8]byte
		copy(p[:], pick)
		src := fuzzBits{v: binary.LittleEndian.Uint64(p[:]), left: 64}
		pool := [...]string{s1, s2, "", exactTechnique}
		str := func() string { return pool[src.next(2)%3] }
		resp := &QueryResponse{ElapsedMs: 1.5}
		for range 1 + int(shape%3) {
			g := GroupResult{Key: str()}
			for range 1 + int(shape/3%2) {
				a := AggResult{Estimate: float(), Lo: float(), Hi: float(), RelErr: float(),
					Name: str(), Technique: pool[src.next(2)], Verdict: str(), Cause: str(),
					Exact: src.next(1) == 1}
				if src.next(1) == 1 {
					a.Lo = a.Estimate
				}
				if src.next(1) == 1 {
					a.Hi = a.Estimate
				}
				if src.next(1) == 1 {
					a.RelErr = 0
				}
				g.Aggs = append(g.Aggs, a)
			}
			resp.Groups = append(resp.Groups, g)
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("marshal %+v: %v", resp, err)
		}
		var back QueryResponse
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if d := responseDiff(&back, resp); d != "" {
			t.Fatalf("%s (body %s)", d, b)
		}
		var raw struct {
			Groups []json.RawMessage `json:"groups"`
		}
		if err := json.Unmarshal(b, &raw); err != nil {
			t.Fatal(err)
		}
		for g := 1; g < len(raw.Groups); g++ {
			pair := fmt.Sprintf(`{"groups":[%s,%s]}`, raw.Groups[0], raw.Groups[g])
			var two QueryResponse
			if err := json.Unmarshal([]byte(pair), &two); err != nil {
				t.Fatalf("unmarshal %s: %v", pair, err)
			}
			want := &QueryResponse{Groups: []GroupResult{resp.Groups[0], resp.Groups[g]}}
			if d := responseDiff(&two, want); d != "" {
				t.Fatalf("group %d read beside group 0: %s (body %s)", g, d, pair)
			}
		}
	})
}

// TestAnswerJSON pins the rule on whole bodies: an ungrouped answer sends
// every descriptor field but exact (the first four bodies), a later group
// sends only the descriptor fields that differ from the first group's, zeros
// included, and exact is sent only where it disagrees with the technique. No
// body carries the SQL, a trace ID or a fell-back flag. Each body decodes
// back to its response.
func TestAnswerJSON(t *testing.T) {
	negZero := F64(math.Copysign(0, -1))
	nan := F64(math.NaN())
	one := func(a AggResult) []GroupResult { return []GroupResult{{Aggs: []AggResult{a}}} }
	exactReject := AggResult{Name: "avg", Estimate: 1, Lo: 1, Hi: 1, Technique: "exact",
		Verdict: "reject", Cause: "too_few_rows", Exact: true}
	for _, c := range []struct {
		name   string
		groups []GroupResult
		want   string
	}{
		{"exact", one(AggResult{Name: "a", Estimate: 2, Lo: 2, Hi: 2, Technique: "exact", Verdict: "accept", Exact: true}),
			`{"groups":[{"aggs":[{"name":"a","estimate":2,"technique":"exact","verdict":"accept"}]}],"elapsed_ms":0.5}`},
		{"lo at estimate", one(AggResult{Name: "a", Estimate: 2, Lo: 2, Hi: 3, RelErr: 0.5, Technique: "bootstrap", Verdict: "reject", Cause: "pi"}),
			`{"groups":[{"aggs":[{"name":"a","estimate":2,"hi":3,"rel_err":0.5,"technique":"bootstrap","verdict":"reject","cause":"pi"}]}],"elapsed_ms":0.5}`},
		{"signed zeros", one(AggResult{Name: "a", Estimate: negZero, Lo: negZero, Hi: 0, RelErr: negZero, Technique: "exact", Verdict: "accept", Exact: true}),
			`{"groups":[{"aggs":[{"name":"a","estimate":-0,"hi":0,"rel_err":-0,"technique":"exact","verdict":"accept"}]}],"elapsed_ms":0.5}`},
		{"no interval", one(AggResult{Name: "s", Estimate: 0, Lo: nan, Hi: nan, RelErr: nan, Technique: "none", Verdict: "accept"}),
			`{"groups":[{"aggs":[{"name":"s","estimate":0,"lo":"NaN","hi":"NaN","rel_err":"NaN","technique":"none","verdict":"accept"}]}],"elapsed_ms":0.5}`},
		{"exact disagrees with the technique", []GroupResult{{Aggs: []AggResult{
			{Name: "a", Estimate: 2, Lo: 2, Hi: 2, Technique: "exact", Verdict: "accept"},
			{Name: "b", Estimate: 3, Lo: 3, Hi: 3, Technique: "bootstrap", Verdict: "accept", Exact: true},
		}}}, `{"groups":[{"aggs":[{"name":"a","estimate":2,"technique":"exact","verdict":"accept","exact":false},` +
			`{"name":"b","estimate":3,"technique":"bootstrap","verdict":"accept","exact":true}]}],"elapsed_ms":0.5}`},
		{"zero descriptor fields after a rejected exact group", []GroupResult{
			{Key: "a", Aggs: []AggResult{exactReject}},
			{Key: "b", Aggs: []AggResult{{Name: "avg", Estimate: 2, Lo: 1.5, Hi: 2.5, RelErr: 0.25,
				Technique: "closed-form", Verdict: "accept"}}},
			{Key: "c", Aggs: []AggResult{{Name: "avg", Estimate: 3, Lo: 3, Hi: 3, Technique: "exact",
				Verdict: "reject", Cause: "too_few_rows", Exact: true}}},
		}, `{"groups":[` +
			`{"key":"a","aggs":[{"name":"avg","estimate":1,"technique":"exact","verdict":"reject","cause":"too_few_rows"}]},` +
			`{"key":"b","aggs":[{"estimate":2,"lo":1.5,"hi":2.5,"rel_err":0.25,"technique":"closed-form","verdict":"accept","cause":""}]},` +
			`{"key":"c","aggs":[{"estimate":3}]}],"elapsed_ms":0.5}`},
		{"two aggregates", []GroupResult{
			{Key: "x", Aggs: []AggResult{exactReject, {Name: "max", Estimate: 9, Lo: 8, Hi: 10, RelErr: 0.1,
				Technique: "bootstrap", Verdict: "accept"}}},
			{Key: "y", Aggs: []AggResult{{Name: "avg", Estimate: 4, Lo: 4, Hi: 4, Technique: "exact",
				Verdict: "reject", Cause: "too_few_rows", Exact: true}, {Name: "max", Estimate: 7, Lo: 7, Hi: 7,
				Technique: "exact", Verdict: "reject", Cause: "delta", Exact: true}}},
		}, `{"groups":[` +
			`{"key":"x","aggs":[{"name":"avg","estimate":1,"technique":"exact","verdict":"reject","cause":"too_few_rows"},` +
			`{"name":"max","estimate":9,"lo":8,"hi":10,"rel_err":0.1,"technique":"bootstrap","verdict":"accept"}]},` +
			`{"key":"y","aggs":[{"estimate":4},{"estimate":7,"technique":"exact","verdict":"reject","cause":"delta"}]}],"elapsed_ms":0.5}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp := &QueryResponse{Groups: c.groups, ElapsedMs: 0.5}
			b, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != c.want {
				t.Errorf("json.Marshal:\n %s\nwant\n %s", b, c.want)
			}
			var body bytes.Buffer
			if err := writeAnswer(&body, resp); err != nil {
				t.Fatal(err)
			}
			if body.String() != c.want+"\n" {
				t.Errorf("HTTP body:\n %s\nwant\n %s", body.String(), c.want)
			}
			var back QueryResponse
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if d := responseDiff(&back, resp); d != "" {
				t.Error(d)
			}
		})
	}
}

// TestHTTPExactAnswerShape: an exact aggregate's JSON object carries no
// lo, hi, rel_err, reason, cause or exact key — the reader restores the
// interval from the estimate and zero, and exact from the technique — and
// the body does not echo the SQL.
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
	if strings.Contains(raw, "Ledger") {
		t.Errorf("body echoes the SQL: %s", raw)
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
	for _, key := range []string{"lo", "hi", "rel_err", "reason", "cause", "exact"} {
		if _, ok := obj[key]; ok {
			t.Errorf("exact aggregate carries %q: %s", key, raw)
		}
	}
	if string(obj["estimate"]) != "9.5" || string(obj["technique"]) != `"exact"` {
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

// BenchmarkAnswerEncode encodes a group_fanout-shaped answer (23 groups of
// one exact aggregate rejected for too few rows) and a dashboard-shaped one
// (one accepted closed-form aggregate), as the /query handler writes them
// and through json.Marshal, which compacts a Marshaler's output once more.
func BenchmarkAnswerEncode(b *testing.B) {
	fanout := &QueryResponse{SampleRows: 50000, PopulationRows: 250000, ElapsedMs: 3.217}
	for g := range 23 {
		v := F64(1234.5 + 7.25*float64(g))
		fanout.Groups = append(fanout.Groups, GroupResult{Key: fmt.Sprintf("device-%02d", g), Aggs: []AggResult{{
			Name: "max", Estimate: v, Lo: v, Hi: v, Technique: "exact", Verdict: "reject", Cause: "too_few_rows", Exact: true}}})
	}
	dashboard := &QueryResponse{SampleRows: 50000, PopulationRows: 250000, ElapsedMs: 1.25,
		Groups: []GroupResult{{Aggs: []AggResult{{Name: "avg", Estimate: 101.23456789, Lo: 99.8765432, Hi: 102.5925925,
			RelErr: 0.01342, Technique: "closed-form", Verdict: "accept"}}}}}
	for _, c := range []struct {
		name string
		resp *QueryResponse
	}{{"group_fanout", fanout}, {"dashboard", dashboard}} {
		b.Run(c.name+"/handler", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := writeAnswer(io.Discard, c.resp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/json.Marshal", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := json.Marshal(c.resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
