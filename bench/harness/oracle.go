package harness

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/workload"
)

// Truth computes the exact answer of q over the generated data with plain
// loops — filter, group, aggregate — sharing no code with the engine under
// test except the workload UDF bodies (which are the UDFs' definition).
// The result maps group key to value; ungrouped queries use key "".
func (d *Data) Truth(q Query) (map[string]float64, error) {
	var col []float64
	if q.Agg != "COUNT" {
		col = d.Measures[q.Col]
		if col == nil {
			return nil, fmt.Errorf("oracle: unknown measure column %q", q.Col)
		}
	}
	var keys []string
	switch q.GroupBy {
	case "":
	case "City":
		keys = d.City
	case "Device":
		keys = d.Device
	default:
		return nil, fmt.Errorf("oracle: unknown group column %q", q.GroupBy)
	}
	uniform := d.Measures["Uniform"]
	groups := map[string][]float64{}
	for i := 0; i < d.Rows; i++ {
		p := q.Pred
		if p.City != "" && d.City[i] != p.City {
			continue
		}
		if p.HasDay && (d.Day[i] < p.DayLo || d.Day[i] > p.DayHi) {
			continue
		}
		if p.UniformLt > 0 && !(uniform[i] < p.UniformLt) {
			continue
		}
		key := ""
		if keys != nil {
			key = keys[i]
		}
		v := 1.0 // COUNT(*) counts rows
		if col != nil {
			v = col[i]
		}
		groups[key] = append(groups[key], v)
	}
	out := make(map[string]float64, len(groups))
	for key, vals := range groups {
		v, err := aggregate(q, vals)
		if err != nil {
			return nil, err
		}
		out[key] = v
	}
	return out, nil
}

// aggregate evaluates q's aggregate over one group's values (never empty).
func aggregate(q Query, vals []float64) (float64, error) {
	n := float64(len(vals))
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	switch q.Agg {
	case "COUNT":
		return n, nil
	case "SUM":
		return sum, nil
	case "AVG":
		return sum / n, nil
	case "MIN", "MAX":
		best := vals[0]
		for _, v := range vals[1:] {
			if (q.Agg == "MIN" && v < best) || (q.Agg == "MAX" && v > best) {
				best = v
			}
		}
		return best, nil
	case "VARIANCE", "STDEV":
		// Population variance, two-pass.
		mean, ss := sum/n, 0.0
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		if q.Agg == "STDEV" {
			return math.Sqrt(ss / n), nil
		}
		return ss / n, nil
	case "PERCENTILE":
		// Type-7 linear interpolation between order statistics.
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		pos := q.Pct * (n - 1)
		lo := math.Floor(pos)
		frac := pos - lo
		v := sorted[int(lo)]
		if frac > 0 {
			v = v*(1-frac) + sorted[int(lo)+1]*frac
		}
		return v, nil
	}
	if u := workload.UDFByName(q.Agg); u != nil {
		return u.Fn(vals, nil), nil
	}
	return 0, fmt.Errorf("oracle: unknown aggregate %q", q.Agg)
}
