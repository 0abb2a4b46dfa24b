package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
)

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// countingListener hands out its connections wrapped to count writes.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, &l.writes}, nil
}

// groupsSubmitter answers "SELECT n" with an answer of n groups of two
// aggregates (one ungrouped group for n = 0), and anything else with an
// error.
type groupsSubmitter struct{}

func (groupsSubmitter) Submit(_ context.Context, query string) (*core.Answer, error) {
	var n int
	if _, err := fmt.Sscanf(query, "SELECT %d", &n); err != nil {
		return nil, errors.New("no such query")
	}
	agg := core.AggAnswer{Name: "AVG(x)", Estimate: 1.5,
		ErrorBar: estimator.Interval{Center: 1.5, HalfWidth: 0.25}, Technique: "closed-form"}
	ans := &core.Answer{}
	for g := range max(n, 1) {
		key := ""
		if n > 0 {
			key = fmt.Sprintf("g%02d", g)
		}
		ans.Groups = append(ans.Groups, core.GroupAnswer{Key: key, Aggs: []core.AggAnswer{agg, agg}})
	}
	return ans, nil
}

// TestOneWritePerResponse: the server writes each response — the
// handshake's greeting and OK, a resultset of one group or forty, an ERR,
// a ping's OK — in one Write, and the client writes its handshake response
// and each command in one.
func TestOneWritePerResponse(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	l := Serve(ln, groupsSubmitter{}, Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		l.Drain()
		l.Shutdown(ctx) //nolint:errcheck
	})
	c, err := Dial(inner.Addr().String(), ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := ln.writes.Load(); got != 2 {
		t.Errorf("handshake: %d server writes, want 2 (greeting, OK)", got)
	}
	var sent atomic.Int64
	c.nc = countingConn{c.nc, &sent}
	for i, step := range []struct {
		name string
		run  func() error
	}{
		{"ungrouped", func() error { return wantRows(c, "SELECT 0", 1) }},
		{"grouped", func() error { return wantRows(c, "SELECT 40", 40) }},
		{"error", func() error {
			var se *ServerError
			if _, err := c.Query("SELECT x"); !errors.As(err, &se) {
				return fmt.Errorf("got %v, want an ERR", err)
			}
			return nil
		}},
		{"ping", c.Ping},
	} {
		before := ln.writes.Load()
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := ln.writes.Load() - before; got != 1 {
			t.Errorf("%s: %d server writes, want 1", step.name, got)
		}
		if got := sent.Load(); got != int64(i+1) {
			t.Errorf("%s: %d client writes so far, want %d", step.name, got, i+1)
		}
	}
}

// wantRows runs query on c and checks it returns rows rows.
func wantRows(c *Client, query string, rows int) error {
	rs, err := c.Query(query)
	if err != nil {
		return err
	}
	if len(rs.Rows) != rows {
		return fmt.Errorf("%d rows, want %d", len(rs.Rows), rows)
	}
	return nil
}
