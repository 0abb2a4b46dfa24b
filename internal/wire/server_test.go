package wire_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// counterValue sums one counter family's series, optionally filtered by a
// label substring, as the registry's Prometheus exposition reports them.
func counterValue(reg *obs.Registry, name, labelSub string) int64 {
	var text strings.Builder
	reg.WritePrometheus(&text)
	var total int64
	for _, line := range strings.Split(text.String(), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		family, labels, _ := strings.Cut(series, "{")
		if family != name || !strings.Contains(labels, labelSub) {
			continue
		}
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("counter %s: value %q: %v", series, value, err))
		}
		total += v
	}
	return total
}

func TestMaxConnsRefusal(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	reg := obs.NewRegistry()
	st := startStack(t, eng, serve.Config{Metrics: reg}, wire.Config{MaxConns: 2})

	c1, err := wire.Dial(st.addr, wire.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := wire.Dial(st.addr, wire.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	_, err = wire.Dial(st.addr, wire.ClientOptions{Timeout: 5 * time.Second})
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Code != 1040 {
		t.Fatalf("third connection: want ERR 1040, got %v", err)
	}
	if n := counterValue(reg, "aqp_conn_rejected_total", "too_many_connections"); n < 1 {
		t.Fatalf("aqp_conn_rejected_total{too_many_connections} = %d, want >= 1", n)
	}

	// Capacity frees on close: the limit is a gauge, not a ratchet.
	c1.Close()
	waitFor(t, "slot freed", func() bool { return st.wl.Open() < 2 })
	c3, err := wire.Dial(st.addr, wire.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("connection after free: %v", err)
	}
	c3.Close()
}

func TestAuthHook(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	st := startStack(t, eng, serve.Config{},
		wire.Config{Auth: wire.NativePassword(map[string]string{"alice": "sesame"})})

	if _, err := wire.DialAuth(st.addr, wire.ClientOptions{
		User: "alice", Timeout: 5 * time.Second}, "wrong", ""); err == nil {
		t.Fatal("bad password admitted")
	} else {
		var se *wire.ServerError
		if !errors.As(err, &se) || se.Code != 1045 {
			t.Fatalf("want ERR 1045, got %v", err)
		}
	}
	if _, err := wire.DialAuth(st.addr, wire.ClientOptions{
		User: "mallory", Timeout: 5 * time.Second}, "sesame", ""); err == nil {
		t.Fatal("unknown user admitted")
	}
	cli, err := wire.DialAuth(st.addr, wire.ClientOptions{
		User: "alice", Timeout: 5 * time.Second}, "sesame", "")
	if err != nil {
		t.Fatalf("valid credentials refused: %v", err)
	}
	defer cli.Close()
	if _, err := cli.Query("SELECT AVG(Price) FROM Orders"); err != nil {
		t.Fatal(err)
	}
}

// rawGreetedConn dials and consumes the server greeting, returning a
// socket positioned where the handshake response belongs.
func rawGreetedConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(nc, hdr); err != nil {
		t.Fatal(err)
	}
	n := int(hdr[0]) | int(hdr[1])<<8 | int(hdr[2])<<16
	if _, err := io.CopyN(io.Discard, nc, int64(n)); err != nil {
		t.Fatal(err)
	}
	return nc
}

// readERRCode reads one packet and decodes it as an ERR, returning the
// code (0 on anything else).
func readERRCode(t *testing.T, nc net.Conn) uint16 {
	t.Helper()
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(nc, hdr); err != nil {
		return 0
	}
	n := int(hdr[0]) | int(hdr[1])<<8 | int(hdr[2])<<16
	p := make([]byte, n)
	if _, err := io.ReadFull(nc, p); err != nil {
		return 0
	}
	if len(p) < 3 || p[0] != 0xff {
		return 0
	}
	return uint16(p[1]) | uint16(p[2])<<8
}

func TestMalformedPacketClosesWithMeteredError(t *testing.T) {
	eng := testEngine(t, core.Config{Seed: 7})
	reg := obs.NewRegistry()
	st := startStack(t, eng, serve.Config{Metrics: reg}, wire.Config{})

	// Wrong sequence id in the handshake response.
	nc := rawGreetedConn(t, st.addr)
	nc.Write([]byte{0x05, 0x00, 0x00, 0x07, 1, 2, 3, 4, 5}) //nolint:errcheck — seq 7, server expects 1
	if code := readERRCode(t, nc); code != 1835 {
		t.Fatalf("bad sequence: want ERR 1835, got %d", code)
	}
	// The connection is closed after the ERR: next read is EOF.
	if _, err := io.ReadAll(nc); err != nil {
		t.Fatalf("expected clean close, got %v", err)
	}
	waitFor(t, "protocol error metered", func() bool {
		return counterValue(reg, "aqp_conn_errors_total", "protocol") >= 1
	})

	// An oversize command after a valid handshake.
	cli, err := wire.Dial(st.addr, wire.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	before := counterValue(reg, "aqp_conn_errors_total", "protocol")
	_, err = cli.Query(strings.Repeat("x", 2<<20)) // past the 1 MiB default cap
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Code != 1153 {
		t.Fatalf("oversize command: want ERR 1153, got %v", err)
	}
	waitFor(t, "oversize metered", func() bool {
		return counterValue(reg, "aqp_conn_errors_total", "protocol") > before
	})
	waitFor(t, "gauges at zero", func() bool {
		return reg.Gauge("aqp_conn_queries_active", "").Value() == 0
	})
}

func TestQueueFullWire(t *testing.T) {
	eng, started, release := blockingEngine(t)
	defer close(release)
	st := startStack(t, eng,
		serve.Config{MaxInFlight: 1, MaxQueue: -1}, // no queue: saturate = reject
		wire.Config{})

	slow, err := wire.Dial(st.addr, wire.ClientOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slowDone := make(chan error, 1)
	go func() {
		_, err := slow.Query("SELECT SLOW(Price) FROM Orders")
		slowDone <- err
	}()
	<-started

	cli, err := wire.Dial(st.addr, wire.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Query("SELECT AVG(Price) FROM Orders")
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Code != 1041 {
		t.Fatalf("saturated: want ERR 1041, got %v", err)
	}
	// The refused connection stays usable for a retry.
	if err := cli.Ping(); err != nil {
		t.Fatalf("connection unusable after queue-full: %v", err)
	}
}
