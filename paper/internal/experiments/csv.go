package experiments

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/paper/internal/cluster"
)

// WriteCSV emits the Fig. 1 series as plot-ready CSV: one row per
// (technique, relative error) point with mean and quantile bars.
func (r *Fig1Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"technique", "rel_err", "mean_rows", "q01_rows", "q99_rows"}); err != nil {
		return err
	}
	for _, tech := range Fig1Techniques {
		for i, e := range r.RelErrs {
			s := r.Sizes[tech][i]
			if err := cw.Write([]string{
				tech, ftoa(e), ftoa(s.Mean), ftoa(s.Q01), ftoa(s.Q99),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the Fig. 3 bars as CSV.
func (r *Fig3Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"trace", "technique", "not_applicable",
		"optimistic", "correct", "pessimistic"}); err != nil {
		return err
	}
	for _, trace := range r.Traces {
		for _, tech := range r.Techniques {
			s := r.Bars[trace][tech]
			if err := cw.Write([]string{trace, tech,
				ftoa(s.NotApplicable), ftoa(s.Optimistic),
				ftoa(s.Correct), ftoa(s.Pessimistic)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the Fig. 4 bars as CSV.
func (r *Fig4Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"estimator", "trace", "accurate_approx",
		"correct_rejection", "false_positives", "false_negatives"}); err != nil {
		return err
	}
	for _, trace := range []string{"conviva", "facebook"} {
		b := r.Bars[trace]
		if err := cw.Write([]string{r.Estimator, trace,
			ftoa(b.AccurateApprox), ftoa(b.CorrectRejection),
			ftoa(b.FalsePositives), ftoa(b.FalseNegatives)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits per-query latency breakdowns (Figs. 7 and 9) as CSV.
func (r *PipelineResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"qset", "query", "exec_sec", "error_sec",
		"diag_sec", "total_sec"}); err != nil {
		return err
	}
	emit := func(name string, set []cluster.Breakdown) error {
		for i, b := range set {
			if err := cw.Write([]string{name, strconv.Itoa(i),
				ftoa(b.QuerySec), ftoa(b.ErrorSec), ftoa(b.DiagSec),
				ftoa(b.Total())}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("qset1", r.QSet1); err != nil {
		return err
	}
	if err := emit("qset2", r.QSet2); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits per-query speedup factors (Figs. 8(a)/(b)/(e)/(f)).
func (r *SpeedupResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"qset", "component", "query", "speedup"}); err != nil {
		return err
	}
	emit := func(qset, comp string, xs []float64) error {
		for i, x := range xs {
			if err := cw.Write([]string{qset, comp, strconv.Itoa(i), ftoa(x)}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, g := range []struct {
		qset, comp string
		xs         []float64
	}{
		{"qset1", "error", r.ErrQ1}, {"qset1", "diag", r.DiagQ1},
		{"qset1", "total", r.TotalQ1},
		{"qset2", "error", r.ErrQ2}, {"qset2", "diag", r.DiagQ2},
		{"qset2", "total", r.TotalQ2},
	} {
		if err := emit(g.qset, g.comp, g.xs); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits a parameter sweep (Figs. 8(c)/(d)).
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"x", "mean_sec", "q01_sec", "q99_sec"}); err != nil {
		return err
	}
	for i, x := range r.X {
		s := r.Times[i]
		if err := cw.Write([]string{ftoa(x), ftoa(s.Mean), ftoa(s.Q01), ftoa(s.Q99)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the diagnostic ablation sweep.
func (r *DiagAblationResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"p", "accuracy", "false_positives",
		"subsample_queries"}); err != nil {
		return err
	}
	for i, p := range r.Ps {
		if err := cw.Write([]string{strconv.Itoa(p), ftoa(r.Accuracy[i]),
			ftoa(r.FalsePositives[i]), ftoa(r.SubsampleQueries[i])}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func ftoa(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
