package wire

import (
	"io"

	"repro/internal/core"
	"repro/internal/serve"
)

// Text-protocol resultsets. An answer renders as one row per group with,
// per aggregate alias a, the columns:
//
//	a            DOUBLE   the estimate
//	a_lo, a_hi   DOUBLE   the α confidence interval endpoints
//	a_rel_err    DOUBLE   half-width / |estimate|
//	a_technique  VARCHAR  error-estimation method ("closed-form", ...)
//	a_verdict    VARCHAR  runtime diagnostic verdict ("accept" | "reject")
//	a_exact      VARCHAR  "1" after an exact fallback, else "0"
//
// Grouped queries get a leading VARCHAR "group" column and every row
// ends with a VARCHAR "trace_id" column carrying the query's W3C trace
// ID — the join key into /debug/queries, the event log, and the durable
// history. Floats are rendered in shortest round-trip form
// (serve.FormatF64): parsing a cell back yields the identical float64
// bits core.Run produced, which the end-to-end equality test asserts.

// Column type bytes (text protocol).
const (
	typeDouble    = 0x05
	typeVarString = 0xfd
)

// colDef41 builds a ColumnDefinition41 payload.
func colDef41(name string, typ byte) []byte {
	b := make([]byte, 0, 48+2*len(name))
	b = appendLenencBytes(b, []byte("def")) // catalog
	b = appendLenencBytes(b, []byte("aqp")) // schema
	b = appendLenencBytes(b, nil)           // table
	b = appendLenencBytes(b, nil)           // org_table
	b = appendLenencBytes(b, []byte(name))  // name
	b = appendLenencBytes(b, []byte(name))  // org_name
	b = append(b, 0x0c)                     // fixed-length fields
	charset := byte(charsetUTF8)
	if typ == typeDouble {
		charset = 0x3f // binary
	}
	b = append(b, charset, 0x00)          // charset
	b = append(b, 0xff, 0x00, 0x00, 0x00) // column length
	b = append(b, typ)
	b = append(b, 0x00, 0x00) // flags
	decimals := byte(0x1f)    // "dynamic" for doubles
	if typ == typeVarString {
		decimals = 0
	}
	b = append(b, decimals)
	b = append(b, 0x00, 0x00) // filler
	return b
}

// answerColumns derives the column plan for an answer: names, types, and
// whether a leading group column is present.
func answerColumns(ans *core.Answer) (names []string, types []byte) {
	grouped := false
	for _, g := range ans.Groups {
		if g.Key != "" {
			grouped = true
			break
		}
	}
	if grouped {
		names = append(names, "group")
		types = append(types, typeVarString)
	}
	if len(ans.Groups) > 0 {
		for _, a := range ans.Groups[0].Aggs {
			names = append(names,
				a.Name, a.Name+"_lo", a.Name+"_hi", a.Name+"_rel_err",
				a.Name+"_technique", a.Name+"_verdict", a.Name+"_exact")
			types = append(types,
				typeDouble, typeDouble, typeDouble, typeDouble,
				typeVarString, typeVarString, typeVarString)
		}
	}
	return names, types
}

// answerRow renders one group as a text-protocol row.
func answerRow(g core.GroupAnswer, grouped bool) []string {
	row := make([]string, 0, 1+7*len(g.Aggs))
	if grouped {
		row = append(row, g.Key)
	}
	for _, a := range g.Aggs {
		exact := "0"
		if a.Exact {
			exact = "1"
		}
		row = append(row,
			serve.FormatF64(a.Estimate),
			serve.FormatF64(a.ErrorBar.Lo()),
			serve.FormatF64(a.ErrorBar.Hi()),
			serve.FormatF64(a.RelErr),
			a.Technique,
			serve.Verdict(a),
			exact)
	}
	return row
}

// writeResultset writes an answer as a text-protocol resultset — column
// count, column definitions, EOF, rows, EOF — framed into one buffer and
// written in one Write. traceID, when non-empty, is appended as a trailing
// VARCHAR "trace_id" column on every row.
func writeResultset(w io.Writer, seq *uint8, ans *core.Answer, traceID string) error {
	names, types := answerColumns(ans)
	if len(names) == 0 {
		// A query with no groups (empty table edge): an OK packet is the
		// protocol-legal empty answer.
		return writePacket(w, seq, okPayload())
	}
	if traceID != "" {
		names = append(names, "trace_id")
		types = append(types, typeVarString)
	}
	out := appendPacket(nil, seq, appendLenencInt(nil, uint64(len(names))))
	for i, name := range names {
		out = appendPacket(out, seq, colDef41(name, types[i]))
	}
	out = appendPacket(out, seq, eofPayload())
	grouped := names[0] == "group"
	var row []byte
	for _, g := range ans.Groups {
		row = row[:0]
		for _, cell := range answerRow(g, grouped) {
			row = appendLenencBytes(row, []byte(cell))
		}
		if traceID != "" {
			row = appendLenencBytes(row, []byte(traceID))
		}
		out = appendPacket(out, seq, row)
	}
	_, err := w.Write(appendPacket(out, seq, eofPayload()))
	return err
}
