package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSV loads a table from CSV data with a header row. Column types are
// given explicitly (one per header column); numeric parse failures abort
// with a row/column-addressed error. It round-trips the files cmd/aqpgen
// writes.
func ReadCSV(r io.Reader, types []Type) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: reading CSV header: %w", err)
	}
	if len(header) != len(types) {
		return nil, fmt.Errorf("table: CSV has %d columns but %d types given",
			len(header), len(types))
	}
	schema := make(Schema, len(header))
	for i, name := range header {
		schema[i] = Field{Name: strings.TrimSpace(name), Type: types[i]}
	}
	b := NewBuilder(schema)
	row := make([]any, len(header))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading CSV line %d: %w", line, err)
		}
		for i, cell := range rec {
			switch types[i] {
			case Float64:
				v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
				if err != nil {
					return nil, fmt.Errorf("table: line %d column %q: %w",
						line, schema[i].Name, err)
				}
				row[i] = v
			case Int64:
				v, err := strconv.ParseInt(strings.TrimSpace(cell), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("table: line %d column %q: %w",
						line, schema[i].Name, err)
				}
				row[i] = v
			case String:
				row[i] = cell
			}
		}
		b.AppendRow(row...)
	}
	return b.Build(), nil
}
