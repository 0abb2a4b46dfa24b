// Package harness is the benchmark for aqpd's serving stack: it generates
// the Events table and the query slots from a seed, boots the stack as a
// child process, replays the slots over loopback sockets, checks every
// answer, and reports end-to-end metrics (untraced child) or per-layer
// metrics (traced, in-process). See ../README.md.
package harness

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/table"
	"repro/internal/workload"
)

// TableName is the one table every workload queries.
const TableName = "Events"

// Scale fixes the data and sample sizes of a run.
type Scale struct {
	Rows       int
	SampleRows int
}

// FullScale is the benchmark's size: the issue's 50,000-row sample, at which
// the diagnostic's subsamples (62/125/250 rows) are large enough to accept
// closed-form aggregates over the symmetric columns, over a table cut to a
// quarter of the issue's million rows so that a run fits the driver's time
// cap. QuickScale is the 10x smaller smoke size (its sample stays large
// enough for the diagnostic ladder to run: core skips diagnostics below 6400
// sample rows).
var (
	FullScale  = Scale{Rows: 250_000, SampleRows: 50_000}
	QuickScale = Scale{Rows: 25_000, SampleRows: 6_400}
)

// Days is the range of the ascending Day column (0..Days-1).
const Days = 90

// Cities and the Zipf exponent of the City column.
var Cities = []string{"NYC", "SF", "LA", "CHI", "SEA", "BOS"}

const cityZipf = 1.1

// NumDevices is the cardinality of the Device column.
const NumDevices = 40

// Measure is one float64 measure column and the distribution behind it.
type Measure struct {
	Name        string
	Dist        workload.DataDist
	Adversarial bool
}

// Measures: four benign and two adversarial columns (the Facebook trace's
// ~30% heavy-tail share is set by how slots pick columns, see slots.go).
var Measures = []Measure{
	{"Gaussian", workload.Gaussian, false},
	{"Uniform", workload.Uniform, false},
	{"Exponential", workload.Exponential, false},
	{"LogNormalMild", workload.LogNormalMild, false},
	{"ParetoTail", workload.ParetoTail, true},
	{"Spiky", workload.Spiky, true},
}

// Data is the generated table in plain slices: what the truth oracle loops
// over and what WriteStore persists for the server.
type Data struct {
	Rows     int
	Day      []int64
	City     []string
	Device   []string
	Measures map[string][]float64
}

// dataSeed generates the table's values for every --seed. Whether the
// diagnostic accepts a query — and so whether the query pays an exact scan —
// depends on the sampled values, so redrawing the data redraws the amount
// of work: across data seeds qps moved by more than any regression bound
// could allow. --seed therefore drives the query literals and the slot
// order, and the data are one fixed draw.
const dataSeed = 3

// GenData generates the Events table: the same values on every call with
// the same row count.
func GenData(rows int) *Data {
	src := rng.NewWithStream(dataSeed, 0xDA7A)
	d := &Data{
		Rows:     rows,
		Day:      make([]int64, rows),
		City:     make([]string, rows),
		Device:   make([]string, rows),
		Measures: make(map[string][]float64, len(Measures)),
	}
	devices := make([]string, NumDevices)
	for i := range devices {
		devices[i] = fmt.Sprintf("dev%02d", i)
	}
	zipf := rng.NewZipf(src.Split(), len(Cities), cityZipf)
	devSrc := src.Split()
	for i := 0; i < rows; i++ {
		d.Day[i] = int64(i) * Days / int64(rows) // ascending, so zone maps can skip
		d.City[i] = Cities[zipf.Next()]
		d.Device[i] = devices[devSrc.Intn(NumDevices)]
	}
	for _, m := range Measures {
		d.Measures[m.Name] = workload.GenerateColumn(src.Split(), m.Dist, rows)
	}
	return d
}

// Table wraps the generated slices as a raw table.Table (no copy).
func (d *Data) Table() *table.Table {
	schema := table.Schema{
		{Name: "Day", Type: table.Int64},
		{Name: "City", Type: table.String},
		{Name: "Device", Type: table.String},
	}
	cols := []table.Column{
		table.Int64Col(d.Day), table.StringCol(d.City), table.StringCol(d.Device),
	}
	for _, m := range Measures {
		schema = append(schema, table.Field{Name: m.Name, Type: table.Float64})
		cols = append(cols, table.Float64Col(d.Measures[m.Name]))
	}
	return table.MustNew(schema, cols...)
}
