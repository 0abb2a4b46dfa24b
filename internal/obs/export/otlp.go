// OTLP/HTTP JSON mapping. The wire shape follows the proto3 JSON
// encoding of opentelemetry.proto.collector.trace.v1.ExportTraceServiceRequest:
// resourceSpans → scopeSpans → spans, hex-encoded ids, nanosecond
// timestamps as decimal strings, and attributes as {key, value:{...}}
// pairs. Only the subset the engine emits is modelled — enough for any
// OTLP collector to ingest without a translation shim.
package export

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

const (
	spanKindInternal = 1
	spanKindServer   = 2

	statusCodeError = 2
)

type otlpExportRequest struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
	Status            *otlpStatus    `json:"status,omitempty"`
}

type otlpKeyValue struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"` // int64 renders as string in proto3 JSON
	DoubleValue *float64 `json:"doubleValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
}

type otlpStatus struct {
	Code    int    `json:"code"`
	Message string `json:"message,omitempty"`
}

func strAttr(key, v string) otlpKeyValue {
	return otlpKeyValue{Key: key, Value: otlpValue{StringValue: &v}}
}

func anyAttr(key string, v any) otlpKeyValue {
	switch x := v.(type) {
	case string:
		return strAttr(key, x)
	case bool:
		return otlpKeyValue{Key: key, Value: otlpValue{BoolValue: &x}}
	case int64:
		s := strconv.FormatInt(x, 10)
		return otlpKeyValue{Key: key, Value: otlpValue{IntValue: &s}}
	case uint64:
		s := strconv.FormatUint(x, 10)
		return otlpKeyValue{Key: key, Value: otlpValue{IntValue: &s}}
	case float64:
		return otlpKeyValue{Key: key, Value: otlpValue{DoubleValue: &x}}
	default:
		return strAttr(key, fmt.Sprint(v))
	}
}

func nanos(t time.Time) string {
	return strconv.FormatInt(t.UnixNano(), 10)
}

// childSpanID derives a deterministic span id for a nested stage span
// from the root span id and the child's tree path — the engine records
// no per-span runtime ids, and deterministic derivation keeps export
// off the query path's allocation budget and out of the RNG entirely.
func childSpanID(rootSpanID, path string) string {
	h := fnv.New64a()
	h.Write([]byte(rootSpanID))
	h.Write([]byte{0})
	h.Write([]byte(path))
	sum := h.Sum64()
	if sum == 0 {
		sum = 1
	}
	return fmt.Sprintf("%016x", sum)
}

// otlpRequest renders a batch of finished queries' span trees as one
// ExportTraceServiceRequest. A record without a trace identity gets a
// freshly minted one so it still exports.
func otlpRequest(serviceName string, batch []*obs.QueryRecord) otlpExportRequest {
	spans := make([]otlpSpan, 0, len(batch)*4)
	for _, rec := range batch {
		t := rec.Trace()
		traceID, spanID, parent := t.TraceID, t.SpanID, t.ParentSpanID
		if traceID == "" || spanID == "" {
			tc := obs.NewTraceContext()
			traceID, spanID, parent = tc.TraceIDString(), tc.SpanIDString(), ""
		}
		start := t.Start
		end := start.Add(time.Duration(t.TotalMs * float64(time.Millisecond)))
		root := otlpSpan{
			TraceID:           traceID,
			SpanID:            spanID,
			ParentSpanID:      parent,
			Name:              "query",
			Kind:              spanKindServer,
			StartTimeUnixNano: nanos(start),
			EndTimeUnixNano:   nanos(end),
			Attributes: []otlpKeyValue{
				strAttr("db.statement", t.SQL),
				anyAttr("aqp.query_id", t.ID),
				strAttr("aqp.outcome", t.Outcome),
			},
		}
		if t.QueueWaitMs > 0 {
			root.Attributes = append(root.Attributes, anyAttr("aqp.queue_wait_ms", t.QueueWaitMs))
		}
		if t.Outcome == "error" || t.Outcome == "cancelled" {
			root.Status = &otlpStatus{Code: statusCodeError, Message: t.Err}
		}
		spans = append(spans, root)
		for i, s := range t.Spans {
			spans = appendSpanTree(spans, traceID, spanID, spanID,
				strconv.Itoa(i), start, s)
		}
	}
	return otlpExportRequest{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpKeyValue{
			strAttr("service.name", serviceName),
		}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "repro/internal/obs"},
			Spans: spans,
		}},
	}}}
}

func appendSpanTree(out []otlpSpan, traceID, rootSpanID, parentID, path string,
	qstart time.Time, s obs.SpanSnapshot) []otlpSpan {
	id := childSpanID(rootSpanID, path)
	start := qstart.Add(time.Duration(s.StartMs * float64(time.Millisecond)))
	end := start.Add(time.Duration(s.Ms * float64(time.Millisecond)))
	sp := otlpSpan{
		TraceID:           traceID,
		SpanID:            id,
		ParentSpanID:      parentID,
		Name:              s.Stage,
		Kind:              spanKindInternal,
		StartTimeUnixNano: nanos(start),
		EndTimeUnixNano:   nanos(end),
	}
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sp.Attributes = append(sp.Attributes, anyAttr("aqp."+k, s.Attrs[k]))
		}
	}
	out = append(out, sp)
	for i, c := range s.Children {
		out = appendSpanTree(out, traceID, rootSpanID, id,
			path+"."+strconv.Itoa(i), qstart, c)
	}
	return out
}
