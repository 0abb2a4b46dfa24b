package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wire"
)

// AggOut is one group's aggregate as a client sees it.
type AggOut struct {
	Key                 string
	Est, Lo, Hi, RelErr float64
	Technique, Verdict  string
	Exact               bool
}

// Result is one query's answer in transport-neutral form (every benchmark
// query has exactly one aggregate, so a group is one AggOut).
type Result struct {
	Groups []AggOut
	// Bytes is the size of what the server sent: the HTTP body, or the
	// wire resultset's column names and cells (framing excluded).
	Bytes int
}

// Hash is an FNV-1a digest of everything in the answer that the repo
// promises is bit-identical across passes, transports and in-process
// execution: group keys, the four floats' bit patterns, technique, verdict
// and exactness.
func (r *Result) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, g := range r.Groups {
		io.WriteString(h, g.Key) //nolint:errcheck // hash writes cannot fail
		for _, f := range []float64{g.Est, g.Lo, g.Hi, g.RelErr} {
			bits := math.Float64bits(f)
			if math.IsNaN(f) {
				bits = 0x7ff8000000000001 // one NaN: text transports lose the payload
			}
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:]) //nolint:errcheck
		}
		fmt.Fprintf(h, "|%s|%s|%t;", g.Technique, g.Verdict, g.Exact)
	}
	return h.Sum64()
}

// FromAnswer converts an in-process engine answer.
func FromAnswer(ans *core.Answer) *Result {
	return fromResponse(serve.EncodeAnswer(ans))
}

func fromResponse(resp *serve.QueryResponse) *Result {
	r := &Result{}
	for _, g := range resp.Groups {
		if len(g.Aggs) != 1 {
			continue // never produced by the benchmark's queries; hash will differ
		}
		a := g.Aggs[0]
		r.Groups = append(r.Groups, AggOut{
			Key: g.Key, Est: float64(a.Estimate), Lo: float64(a.Lo), Hi: float64(a.Hi),
			RelErr: float64(a.RelErr), Technique: a.Technique, Verdict: a.Verdict, Exact: a.Exact,
		})
	}
	return r
}

// Conn is one closed-loop client connection.
type Conn interface {
	Query(sql string) (*Result, error)
	Close() error
}

// queryTimeout bounds one round trip; nothing in the benchmark takes a
// tenth of it, so hitting it is a failure, not a slow query.
const queryTimeout = 60 * time.Second

// Dial opens one connection of the given transport to a ready server.
func Dial(t Transport, ready readyLine) (Conn, error) {
	if t == Wire {
		c, err := wire.Dial(ready.Wire, wire.ClientOptions{User: "bench", Timeout: queryTimeout})
		if err != nil {
			return nil, err
		}
		return &wireConn{c}, nil
	}
	return &httpConn{
		url: "http://" + ready.HTTP + "/query",
		client: &http.Client{
			Timeout:   queryTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
	}, nil
}

type wireConn struct{ c *wire.Client }

func (w *wireConn) Close() error { return w.c.Close() }

func (w *wireConn) Query(sql string) (*Result, error) {
	rs, err := w.c.Query(sql)
	if err != nil {
		return nil, err
	}
	// Columns: [group], then alias, _lo, _hi, _rel_err, _technique,
	// _verdict, _exact, then trace_id (see internal/wire/resultset.go).
	grouped := len(rs.Columns) > 0 && rs.Columns[0] == "group"
	base := 0
	if grouped {
		base = 1
	}
	if len(rs.Columns) != base+8 {
		return nil, fmt.Errorf("wire: unexpected resultset shape %v", rs.Columns)
	}
	r := &Result{}
	for _, name := range rs.Columns {
		r.Bytes += len(name)
	}
	for _, row := range rs.Rows {
		for _, cell := range row {
			r.Bytes += len(cell)
		}
		var g AggOut
		if grouped {
			g.Key = row[0]
		}
		for i, dst := range []*float64{&g.Est, &g.Lo, &g.Hi, &g.RelErr} {
			if *dst, err = strconv.ParseFloat(row[base+i], 64); err != nil {
				return nil, fmt.Errorf("wire: bad float cell %q", row[base+i])
			}
		}
		g.Technique, g.Verdict, g.Exact = row[base+4], row[base+5], row[base+6] == "1"
		r.Groups = append(r.Groups, g)
	}
	return r, nil
}

type httpConn struct {
	url    string
	client *http.Client
}

func (h *httpConn) Close() error {
	h.client.CloseIdleConnections()
	return nil
}

func (h *httpConn) Query(sql string) (*Result, error) {
	body, err := json.Marshal(serve.QueryRequest{SQL: sql})
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return nil, err
	}
	r := fromResponse(&qr)
	r.Bytes = len(raw)
	return r, nil
}
