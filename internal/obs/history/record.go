package history

import (
	"math"

	"repro/internal/obs"
)

// Record kinds. Every record in a segment is exactly one of these.
const (
	KindQuery  = "query"  // one finished query (core.finishQuery)
	KindAudit  = "audit"  // one watchdog ground-truth comparison
	KindReject = "reject" // one admission-layer rejection (never executed)
)

// Record is the unit of the history log: a kind tag, a wall-clock
// timestamp, and exactly one populated payload. The query and audit
// payloads are the records the event log and the watchdog read too; their
// JSON tags are this log's schema. All float fields are sanitized to
// finite values before appending because the payload is JSON — NaN
// half-widths become the -1 "undefined" sentinel (RelErr) or zero
// (everything else).
type Record struct {
	Kind string `json:"kind"`
	// TS is the record's wall-clock time in Unix nanoseconds.
	TS     int64            `json:"ts"`
	Query  *obs.QueryRecord `json:"query,omitempty"`
	Audit  *obs.AuditRecord `json:"audit,omitempty"`
	Reject *RejectRecord    `json:"reject,omitempty"`
}

// RejectRecord is one admission rejection: the query never reached the
// engine, so no query record exists — but availability SLOs must still see
// it.
type RejectRecord struct {
	Reason string `json:"reason"`
}

// finite clamps non-finite floats to zero so records always JSON-encode.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// finiteRel maps a non-finite relative error to the -1 sentinel.
func finiteRel(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return -1
	}
	return v
}

// sanitizeQuery returns a JSON-safe copy of q. The caller's record is
// shared with the other sinks, so nothing it points at is written.
func sanitizeQuery(q *obs.QueryRecord) *obs.QueryRecord {
	c := *q
	c.TotalMs = finite(c.TotalMs)
	c.QueueWaitMs = finite(c.QueueWaitMs)
	c.Selectivity = finite(c.Selectivity)
	c.SampleFraction = finite(c.SampleFraction)
	if len(c.StagesMs) > 0 {
		c.StagesMs = make(map[string]float64, len(q.StagesMs))
		for k, v := range q.StagesMs {
			c.StagesMs[k] = finite(v)
		}
	}
	c.Aggs = append([]obs.AggRecord(nil), q.Aggs...)
	for i := range c.Aggs {
		a := &c.Aggs[i]
		a.Center = finite(a.Center)
		a.HalfWidth = finite(a.HalfWidth)
		a.RelErr = finiteRel(a.RelErr)
	}
	return &c
}
