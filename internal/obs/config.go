package obs

// Config collects the telemetry knobs shared by the tracer and the event
// log. The zero value means "defaults everywhere"; the tracer and the
// event log each read only the fields they care about.
type Config struct {
	// RingSize bounds the in-memory ring of recent query traces
	// (0 = 64). Read by NewTracer.
	RingSize int
	// SlowQueryMs is the latency threshold above which a query's event is
	// emitted at Warn level with slow=true (0 = 1000). Read by NewEventLog.
	SlowQueryMs float64
	// MaxRelErr, when positive, marks queries whose worst aggregate
	// relative error exceeds it as miscalibrated=true (Warn level), in
	// addition to queries with a rejected diagnostic verdict. Read by
	// NewEventLog.
	MaxRelErr float64
	// ExportURL, when set, enables the OTLP/HTTP JSON span exporter
	// (internal/obs/export) posting finished traces to this endpoint
	// (e.g. "http://collector:4318/v1/traces"). Read by core.New when it
	// wires the engine's tracer.
	ExportURL string
	// ExportPath, when set, enables the exporter's filesink fallback for
	// air-gapped runs: OTLP-shaped JSON lines appended to this file. May
	// be combined with ExportURL (spans go to both).
	ExportPath string
}

// Options is an alias of Config, kept only because bench/harness/trace.go
// names it and bench/ is frozen outside a [benchmark] PR.
type Options = Config

func (o Config) slowMs() float64 {
	if o.SlowQueryMs <= 0 {
		return 1000
	}
	return o.SlowQueryMs
}

func (o Config) ringSize() int {
	if o.RingSize <= 0 {
		return 64
	}
	return o.RingSize
}
