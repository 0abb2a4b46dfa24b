package protocol

// Outcome classifies one diagnostic decision against the expensive ground
// truth (§4.2's accuracy evaluation, Fig. 4).
type Outcome int

// Diagnostic assessment outcomes.
const (
	// TrueAccept: diagnostic said OK and estimation really works —
	// "accurate approximation" in Fig. 4.
	TrueAccept Outcome = iota
	// TrueReject: diagnostic said no and estimation really fails.
	TrueReject
	// FalsePositive: diagnostic said OK but estimation fails — the
	// dangerous direction (users would see bad error bars).
	FalsePositive
	// FalseNegative: diagnostic said no but estimation works — wasteful
	// (the system falls back needlessly).
	FalseNegative
)

func (o Outcome) String() string {
	switch o {
	case TrueAccept:
		return "accurate-approximation"
	case TrueReject:
		return "correct-rejection"
	case FalsePositive:
		return "false-positive"
	case FalseNegative:
		return "false-negative"
	default:
		return "unknown"
	}
}

// Assess combines the diagnostic's decision with the ground-truth answer
// to whether estimation actually works.
func Assess(diagnosticOK, estimationWorks bool) Outcome {
	switch {
	case diagnosticOK && estimationWorks:
		return TrueAccept
	case !diagnosticOK && !estimationWorks:
		return TrueReject
	case diagnosticOK:
		return FalsePositive
	default:
		return FalseNegative
	}
}

// Tally accumulates outcomes over a query workload and reports the
// fractions Fig. 4 plots.
type Tally struct {
	counts [4]int
	total  int
}

// Add records one outcome.
func (t *Tally) Add(o Outcome) {
	t.counts[o]++
	t.total++
}

// Frac returns the fraction of outcomes of the given kind.
func (t *Tally) Frac(o Outcome) float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.counts[o]) / float64(t.total)
}

// AccurateFrac is the Fig. 4 headline: the fraction of queries on which the
// diagnostic made the right call (accepting working estimation or rejecting
// broken estimation).
func (t *Tally) AccurateFrac() float64 {
	return t.Frac(TrueAccept) + t.Frac(TrueReject)
}
