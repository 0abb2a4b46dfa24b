package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Submitter answers one SQL query under admission control. *serve.Server
// implements it; tests substitute fakes.
type Submitter interface {
	Submit(ctx context.Context, query string) (*core.Answer, error)
}

// Config tunes a Listener.
type Config struct {
	// Auth vets connections after the handshake (nil = admit everyone).
	Auth AuthFunc
	// MaxConns bounds concurrently open connections (0 = 256). Excess
	// connections are greeted with ER_CON_COUNT_ERROR and closed — the
	// connection limit layered above the admission queue's query limit.
	MaxConns int
	// MaxPacket bounds one command payload (0 = 1 MiB). Oversized
	// payloads are a metered protocol error that closes the connection.
	MaxPacket int
	// Version is the server version string in the handshake
	// (0 = "8.0.0-aqpd"). Stock clients parse it for feature gating, so
	// it should look like a MySQL version.
	Version string
	// Metrics, when non-nil, receives the aqp_conn_* gauges and counters.
	Metrics *obs.Registry
	// EventLog, when non-nil, receives kind=conn lifecycle records.
	EventLog *obs.EventLog
}

func (c Config) maxConns() int {
	if c.MaxConns <= 0 {
		return 256
	}
	return c.MaxConns
}

func (c Config) maxPacket() int {
	if c.MaxPacket <= 0 {
		return defaultMaxPacket
	}
	return c.MaxPacket
}

func (c Config) version() string {
	if c.Version == "" {
		return "8.0.0-aqpd"
	}
	return c.Version
}

// Listener accepts MySQL-wire connections and routes their queries into
// the admission layer. Construct with Serve.
type Listener struct {
	sub Submitter
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	conns    map[uint64]*conn
	draining bool

	wg     sync.WaitGroup // accept loop + one goroutine per connection
	nextID atomic.Uint64

	gOpen   *obs.Gauge
	gActive *obs.Gauge
	opened  *obs.Counter
	closed  *obs.Counter
	queries *obs.Counter
}

// conn is one wire connection's state.
type conn struct {
	id     uint64
	nc     net.Conn
	br     *bufio.Reader
	info   ConnInfo
	nq     int64
	busy   atomic.Bool
	ctx    context.Context
	cancel context.CancelFunc
	start  time.Time
}

// Serve starts accepting connections on ln. The returned Listener owns
// ln: Shutdown (or Close on the listener) stops the accept loop.
func Serve(ln net.Listener, sub Submitter, cfg Config) *Listener {
	reg := cfg.Metrics
	l := &Listener{
		sub:   sub,
		cfg:   cfg,
		ln:    ln,
		conns: map[uint64]*conn{},
		gOpen: reg.Gauge("aqp_conn_open",
			"MySQL-wire connections currently open."),
		gActive: reg.Gauge("aqp_conn_queries_active",
			"Wire queries currently executing (admission wait included)."),
		opened: reg.Counter("aqp_conn_opened_total",
			"MySQL-wire connections accepted."),
		closed: reg.Counter("aqp_conn_closed_total",
			"MySQL-wire connections closed."),
		queries: reg.Counter("aqp_conn_queries_total",
			"COM_QUERY commands received over the wire."),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l
}

// Addr returns the listener's bound address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// connError meters one connection-level error by kind
// ("protocol" | "auth" | "io").
func (l *Listener) connError(kind string) {
	l.cfg.Metrics.Counter("aqp_conn_errors_total",
		"Wire connection errors by kind.", "kind", kind).Inc()
}

// connReject meters one refused connection by reason.
func (l *Listener) connReject(reason string) {
	l.cfg.Metrics.Counter("aqp_conn_rejected_total",
		"Wire connections refused before the command phase, by reason.",
		"reason", reason).Inc()
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			l.mu.Lock()
			draining := l.draining
			l.mu.Unlock()
			if draining {
				return
			}
			l.connError("io")
			continue
		}
		l.mu.Lock()
		if l.draining {
			l.mu.Unlock()
			l.refuse(nc, errServerShutdown, "08S01", "Server shutdown in progress", "shutting_down")
			continue
		}
		if len(l.conns) >= l.cfg.maxConns() {
			l.mu.Unlock()
			l.refuse(nc, errTooManyConnections, "08004", "Too many connections", "too_many_connections")
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		c := &conn{
			id:     l.nextID.Add(1),
			nc:     nc,
			br:     bufio.NewReader(nc),
			ctx:    ctx,
			cancel: cancel,
			start:  time.Now(),
		}
		c.info = ConnInfo{ID: c.id, Remote: nc.RemoteAddr().String()}
		l.conns[c.id] = c
		open := len(l.conns)
		l.mu.Unlock()
		l.gOpen.Set(int64(open))
		l.opened.Inc()
		l.wg.Add(1)
		go l.handleConn(c)
	}
}

// refuse greets a connection with an ERR packet and closes it, without
// ever granting it a connection slot.
func (l *Listener) refuse(nc net.Conn, code uint16, state, msg, reason string) {
	l.connReject(reason)
	l.cfg.EventLog.EmitConn(obs.ConnEvent{
		Transport: "mysql", Remote: nc.RemoteAddr().String(),
		Event: reason, Err: msg,
	})
	seq := uint8(0)
	nc.SetWriteDeadline(time.Now().Add(time.Second))    //nolint:errcheck
	writePacket(nc, &seq, errPayload(code, state, msg)) //nolint:errcheck
	nc.Close()                                          //nolint:errcheck
}

// handleConn drives one connection: handshake, auth, command loop.
func (l *Listener) handleConn(c *conn) {
	defer l.wg.Done()
	defer func() {
		c.cancel()
		c.nc.Close() //nolint:errcheck
		l.mu.Lock()
		delete(l.conns, c.id)
		open := len(l.conns)
		l.mu.Unlock()
		l.gOpen.Set(int64(open))
		l.closed.Inc()
		l.cfg.EventLog.EmitConn(obs.ConnEvent{
			Transport: "mysql", ConnID: c.id, Remote: c.info.Remote,
			User: c.info.User, Event: "close", Queries: c.nq,
			DurMs: float64(time.Since(c.start)) / 1e6,
		})
	}()
	if !l.handshake(c) {
		return
	}
	l.cfg.EventLog.EmitConn(obs.ConnEvent{
		Transport: "mysql", ConnID: c.id, Remote: c.info.Remote,
		User: c.info.User, Event: "open",
	})
	l.commandLoop(c)
}

// handshake runs the greeting/response/auth exchange. It reports whether
// the connection may proceed to the command phase.
func (l *Listener) handshake(c *conn) bool {
	salt := newSalt()
	seq := uint8(0)
	if err := writePacket(c.nc, &seq, handshakeV10(uint32(c.id), salt, l.cfg.version())); err != nil {
		l.connError("io")
		return false
	}
	payload, err := readPacket(c.br, &seq, l.cfg.maxPacket())
	if err != nil {
		l.protocolError(c, &seq, err)
		return false
	}
	resp, err := parseHandshakeResponse(payload)
	if err != nil {
		l.connError("protocol")
		l.cfg.EventLog.EmitConn(obs.ConnEvent{
			Transport: "mysql", ConnID: c.id, Remote: c.info.Remote,
			Event: "protocol_error", Err: err.Error(),
		})
		writePacket(c.nc, &seq, errPayload(errHandshake, "08S01", "Bad handshake")) //nolint:errcheck
		return false
	}
	c.info.User = resp.User
	c.info.Database = resp.Database
	if l.cfg.Auth != nil {
		if err := l.cfg.Auth(c.info, salt, resp.AuthResp); err != nil {
			l.connError("auth")
			l.cfg.EventLog.EmitConn(obs.ConnEvent{
				Transport: "mysql", ConnID: c.id, Remote: c.info.Remote,
				User: resp.User, Event: "auth_error", Err: err.Error(),
			})
			writePacket(c.nc, &seq, errPayload(errAccessDenied, "28000", //nolint:errcheck
				fmt.Sprintf("Access denied for user '%s'", resp.User)))
			return false
		}
	}
	return writePacket(c.nc, &seq, okPayload()) == nil
}

// protocolError handles a failed command read: a clean disconnect closes
// silently, a drain-induced wakeup answers ER_SERVER_SHUTDOWN, anything
// else is metered and (for decodable violations) answered with an ERR
// packet before the connection closes. It never panics on malformed
// input — the connection just dies, observably.
func (l *Listener) protocolError(c *conn, seq *uint8, err error) {
	if l.drainingNow() {
		// Woken by Drain's read deadline (or racing with it): tell the
		// client the server is going away rather than resetting.
		s := uint8(1)
		writePacket(c.nc, &s, errPayload(errServerShutdown, "08S01", "Server shutdown in progress")) //nolint:errcheck
		return
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) {
		return // client went away between (or inside) commands
	}
	if errors.Is(err, ErrMalformed) {
		l.connError("protocol")
		l.cfg.EventLog.EmitConn(obs.ConnEvent{
			Transport: "mysql", ConnID: c.id, Remote: c.info.Remote,
			User: c.info.User, Event: "protocol_error", Err: err.Error(),
		})
		code := uint16(errMalformedPacket)
		if strings.Contains(err.Error(), "exceeds") {
			// Oversized payloads get the dedicated code clients know.
			code = errNetPacketTooLarge
		}
		s := uint8(1)
		writePacket(c.nc, &s, errPayload(code, "HY000", err.Error())) //nolint:errcheck
		if code == errNetPacketTooLarge {
			// The client is still sending the frame it announced. Closing a
			// socket with unread input resets the connection, which can
			// destroy the ERR before the client reads it; discard what is
			// in flight first, bounded by one frame and one second.
			c.nc.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck
			io.CopyN(io.Discard, c.br, maxChunk)              //nolint:errcheck
		}
		return
	}
	l.connError("io")
}

// commandLoop serves commands until the client quits, the connection
// dies, or the listener drains.
func (l *Listener) commandLoop(c *conn) {
	for {
		if l.drainingNow() {
			// Sequence id 1: the client reads this as the response to its
			// in-flight (or next) command, so the drain surfaces as a
			// decodable ERR rather than a reset mid-exchange.
			s := uint8(1)
			writePacket(c.nc, &s, errPayload(errServerShutdown, "08S01", "Server shutdown in progress")) //nolint:errcheck
			return
		}
		seq := uint8(0)
		payload, err := readPacket(c.br, &seq, l.cfg.maxPacket())
		if err != nil {
			l.protocolError(c, &seq, err)
			return
		}
		if len(payload) == 0 {
			l.protocolError(c, &seq, fmt.Errorf("%w: empty command", ErrMalformed))
			return
		}
		c.busy.Store(true)
		ok := l.dispatch(c, &seq, payload)
		c.busy.Store(false)
		if !ok {
			return
		}
	}
}

// dispatch executes one command payload; false ends the connection.
func (l *Listener) dispatch(c *conn, seq *uint8, payload []byte) bool {
	switch payload[0] {
	case 0x01: // COM_QUIT
		return false
	case 0x0e: // COM_PING
		c.nq++
		return writePacket(c.nc, seq, okPayload()) == nil
	case 0x02: // COM_INIT_DB
		c.info.Database = string(payload[1:])
		return writePacket(c.nc, seq, okPayload()) == nil
	case 0x03: // COM_QUERY
		return l.handleQuery(c, seq, string(payload[1:]))
	case 0x16, 0x17, 0x19: // COM_STMT_PREPARE / EXECUTE / CLOSE
		return writePacket(c.nc, seq, errPayload(errUnsupportedPS, "HY000",
			"prepared statements are not supported; use the text protocol")) == nil
	default:
		return writePacket(c.nc, seq, errPayload(errUnknownCom, "08S01",
			fmt.Sprintf("Unknown command 0x%02x", payload[0]))) == nil
	}
}

// parseTraceComment extracts trace identity from an optional
// /*traceparent=<W3C value>*/ comment prefix — the wire protocol has no
// headers, so trace propagation rides in a comment the parser would
// otherwise ignore. The comment is stripped before submission so the
// trace ring, event log, and history record the clean SQL. A missing or
// malformed comment mints a root context, mirroring the HTTP front end.
func parseTraceComment(sql string) (obs.TraceContext, string) {
	const prefix = "/*traceparent="
	trimmed := strings.TrimLeft(sql, " \t\r\n")
	if strings.HasPrefix(trimmed, prefix) {
		if end := strings.Index(trimmed, "*/"); end >= len(prefix) {
			value := trimmed[len(prefix):end]
			rest := strings.TrimLeft(trimmed[end+2:], " \t\r\n")
			if tc, ok := obs.ParseTraceparent(value); ok {
				return tc, rest
			}
			return obs.NewTraceContext(), rest
		}
	}
	return obs.NewTraceContext(), sql
}

// handleQuery answers one COM_QUERY through the admission layer. Errors
// map to the MySQL codes clients expect: queue overflow →
// ER_OUT_OF_RESOURCES, drain → ER_SERVER_SHUTDOWN (connection then
// closes), deadline → ER_QUERY_TIMEOUT, cancellation →
// ER_QUERY_INTERRUPTED, engine refusals → ER_PARSE_ERROR.
// Successful resultsets carry a trailing trace_id column (the same ID
// the HTTP front end echoes in its traceparent header).
func (l *Listener) handleQuery(c *conn, seq *uint8, sql string) bool {
	c.nq++
	l.queries.Inc()
	tc, sql := parseTraceComment(sql)
	ctx := obs.ContextWithTrace(c.ctx, tc)
	l.gActive.Inc()
	ans, err := l.sub.Submit(ctx, sql)
	l.gActive.Dec()
	if err != nil {
		code, _ := serve.Classify(err)
		switch code {
		case "queue_full":
			return writePacket(c.nc, seq, errPayload(errOutOfResources, "HY000",
				"admission queue full; retry")) == nil
		case "shutting_down":
			writePacket(c.nc, seq, errPayload(errServerShutdown, "08S01", //nolint:errcheck
				"Server shutdown in progress"))
			return false
		case "deadline":
			return writePacket(c.nc, seq, errPayload(errQueryTimeout, "HY000",
				err.Error())) == nil
		case "cancelled":
			return writePacket(c.nc, seq, errPayload(errQueryInterrupted, "70100",
				err.Error())) == nil
		default:
			return writePacket(c.nc, seq, errPayload(errParse, "42000",
				err.Error())) == nil
		}
	}
	if err := writeResultset(c.nc, seq, ans, tc.TraceIDString()); err != nil {
		l.connError("io")
		return false
	}
	return true
}

func (l *Listener) drainingNow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.draining
}

// Drain stops accepting connections and begins winding down existing
// ones: idle connections are woken (via a read deadline) and told the
// server is shutting down with a proper ERR packet; busy connections
// finish their current command — whose admission-layer rejection, if the
// serve layer is also draining, already surfaced as ER_SERVER_SHUTDOWN —
// and are then told the same. Drain is idempotent and returns
// immediately; use Shutdown to wait.
func (l *Listener) Drain() {
	l.mu.Lock()
	if l.draining {
		l.mu.Unlock()
		return
	}
	l.draining = true
	conns := make([]*conn, 0, len(l.conns))
	for _, c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	l.ln.Close() //nolint:errcheck
	for _, c := range conns {
		if !c.busy.Load() {
			// Wake the blocked command read; the handler answers with
			// ER_SERVER_SHUTDOWN and closes.
			c.nc.SetReadDeadline(time.Now()) //nolint:errcheck
		}
	}
}

// Shutdown drains and waits for every connection goroutine to exit. If
// ctx expires first, remaining connections are force-closed (cancelling
// their in-flight queries) and the wait resumes; the error then reports
// how many were cut.
func (l *Listener) Shutdown(ctx context.Context) error {
	l.Drain()
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	l.mu.Lock()
	cut := len(l.conns)
	for _, c := range l.conns {
		c.cancel()
		c.nc.Close() //nolint:errcheck
	}
	l.mu.Unlock()
	<-done
	if cut > 0 {
		return fmt.Errorf("wire: drain deadline: force-closed %d connections: %w", cut, ctx.Err())
	}
	return ctx.Err()
}
