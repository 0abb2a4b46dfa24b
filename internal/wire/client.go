package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// A minimal MySQL text-protocol client: enough to handshake, authenticate
// with mysql_native_password, and run COM_QUERY / COM_PING against any
// 4.1+ server. It exists so the end-to-end tests and the bench/ load
// generator can hold the daemon to the protocol from the outside without
// pulling in a driver dependency; it is not a general-purpose client.

// ClientOptions configures Dial.
type ClientOptions struct {
	User string
	// Timeout applies to the dial and each subsequent command round trip
	// (0 = none).
	Timeout time.Duration

	// password and database are set only by tests (DialAuth): the
	// mysql_native_password secret and the initial database.
	password, database string
}

// clientMaxPacket bounds one response payload: 16 MiB, because resultsets
// are bigger than commands.
const clientMaxPacket = 16 << 20

// Client is one wire connection.
type Client struct {
	nc  net.Conn
	br  *bufio.Reader
	opt ClientOptions
}

// Resultset is a decoded text-protocol resultset. NULL cells decode as
// empty strings (the daemon never emits NULL).
type Resultset struct {
	Columns []string
	Rows    [][]string
}

// Dial connects, handshakes and authenticates.
func Dial(addr string, opt ClientOptions) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, opt.Timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc, br: bufio.NewReader(nc), opt: opt}
	if err := c.handshake(); err != nil {
		nc.Close() //nolint:errcheck
		return nil, err
	}
	return c, nil
}

func (c *Client) deadline() {
	if c.opt.Timeout > 0 {
		c.nc.SetDeadline(time.Now().Add(c.opt.Timeout)) //nolint:errcheck
	}
}

func (c *Client) handshake() error {
	c.deadline()
	seq := uint8(0)
	greeting, err := readPacket(c.br, &seq, clientMaxPacket)
	if err != nil {
		return fmt.Errorf("wire: reading greeting: %w", err)
	}
	if len(greeting) > 0 && greeting[0] == 0xff {
		return parseErrPayload(greeting) // refused pre-handshake (limits)
	}
	salt, err := parseGreeting(greeting)
	if err != nil {
		return err
	}
	caps := uint32(capProtocol41 | capSecureConnection | capPluginAuth | capLongPassword)
	if c.opt.database != "" {
		caps |= capConnectWithDB
	}
	auth := nativeScramble(salt, c.opt.password)
	resp := make([]byte, 0, 64)
	resp = append(resp, byte(caps), byte(caps>>8), byte(caps>>16), byte(caps>>24))
	resp = append(resp, 0x00, 0x00, 0x00, 0x01) // max packet 1<<24
	resp = append(resp, charsetUTF8)
	resp = append(resp, make([]byte, 23)...)
	resp = append(resp, c.opt.User...)
	resp = append(resp, 0)
	resp = append(resp, byte(len(auth)))
	resp = append(resp, auth...)
	if c.opt.database != "" {
		resp = append(resp, c.opt.database...)
		resp = append(resp, 0)
	}
	resp = append(resp, authPluginName...)
	resp = append(resp, 0)
	if err := writePacket(c.nc, &seq, resp); err != nil {
		return fmt.Errorf("wire: sending handshake response: %w", err)
	}
	verdict, err := readPacket(c.br, &seq, clientMaxPacket)
	if err != nil {
		return fmt.Errorf("wire: reading auth verdict: %w", err)
	}
	if len(verdict) > 0 && verdict[0] == 0xff {
		return parseErrPayload(verdict)
	}
	if len(verdict) == 0 || verdict[0] != 0x00 {
		return fmt.Errorf("%w: unexpected auth verdict", ErrMalformed)
	}
	return nil
}

// parseGreeting extracts the full 20-byte salt from a HandshakeV10
// payload.
func parseGreeting(p []byte) ([]byte, error) {
	if len(p) < 1 || p[0] != 0x0a {
		return nil, fmt.Errorf("%w: unsupported greeting", ErrMalformed)
	}
	_, rest, ok := nullTermBytes(p[1:]) // server version
	if !ok || len(rest) < 4+8+1 {
		return nil, fmt.Errorf("%w: truncated greeting", ErrMalformed)
	}
	rest = rest[4:] // connection id
	salt := append([]byte(nil), rest[:8]...)
	rest = rest[8+1:] // salt part 1, filler
	// caps lower (2), charset (1), status (2), caps upper (2), auth data
	// len (1), reserved (10)
	if len(rest) < 18 {
		return salt, nil // pre-4.1-style short greeting: 8-byte salt only
	}
	rest = rest[18:]
	// Salt part 2: 12 bytes (13 with trailing NUL) by convention.
	n := 12
	if len(rest) < n {
		n = len(rest)
	}
	return append(salt, rest[:n]...), nil
}

// Query runs one COM_QUERY and decodes the text-protocol response.
func (c *Client) Query(sql string) (*Resultset, error) {
	c.deadline()
	seq := uint8(0)
	if err := writePacket(c.nc, &seq, append([]byte{0x03}, sql...)); err != nil {
		return nil, err
	}
	first, err := readPacket(c.br, &seq, clientMaxPacket)
	if err != nil {
		return nil, err
	}
	if len(first) == 0 {
		return nil, fmt.Errorf("%w: empty response", ErrMalformed)
	}
	switch first[0] {
	case 0xff:
		return nil, parseErrPayload(first)
	case 0x00:
		return &Resultset{}, nil // OK: statement with no resultset
	}
	ncols, n, ok := lenencInt(first)
	if !ok || n != len(first) || ncols == 0 || ncols > 1<<16 {
		return nil, fmt.Errorf("%w: bad column count", ErrMalformed)
	}
	rs := &Resultset{}
	for i := uint64(0); i < ncols; i++ {
		def, err := readPacket(c.br, &seq, clientMaxPacket)
		if err != nil {
			return nil, err
		}
		name, err := columnName(def)
		if err != nil {
			return nil, err
		}
		rs.Columns = append(rs.Columns, name)
	}
	// EOF after column definitions.
	if p, err := readPacket(c.br, &seq, clientMaxPacket); err != nil {
		return nil, err
	} else if len(p) == 0 || p[0] != 0xfe {
		return nil, fmt.Errorf("%w: missing column EOF", ErrMalformed)
	}
	for {
		p, err := readPacket(c.br, &seq, clientMaxPacket)
		if err != nil {
			return nil, err
		}
		if len(p) > 0 && p[0] == 0xff {
			return nil, parseErrPayload(p)
		}
		if len(p) > 0 && p[0] == 0xfe && len(p) < 9 {
			return rs, nil // terminating EOF
		}
		row := make([]string, 0, ncols)
		for len(p) > 0 {
			if p[0] == 0xfb { // NULL
				row = append(row, "")
				p = p[1:]
				continue
			}
			cell, n, ok := lenencBytes(p)
			if !ok {
				return nil, fmt.Errorf("%w: truncated row", ErrMalformed)
			}
			row = append(row, string(cell))
			p = p[n:]
		}
		if uint64(len(row)) != ncols {
			return nil, fmt.Errorf("%w: row has %d cells, want %d", ErrMalformed, len(row), ncols)
		}
		rs.Rows = append(rs.Rows, row)
	}
}

// columnName extracts the display name from a ColumnDefinition41 payload.
func columnName(def []byte) (string, error) {
	rest := def
	for i := 0; i < 4; i++ { // catalog, schema, table, org_table
		_, n, ok := lenencBytes(rest)
		if !ok {
			return "", fmt.Errorf("%w: truncated column definition", ErrMalformed)
		}
		rest = rest[n:]
	}
	name, _, ok := lenencBytes(rest)
	if !ok {
		return "", fmt.Errorf("%w: truncated column name", ErrMalformed)
	}
	return string(name), nil
}

// Close sends COM_QUIT (best effort) and closes the socket.
func (c *Client) Close() error {
	seq := uint8(0)
	writePacket(c.nc, &seq, []byte{0x01}) //nolint:errcheck
	return c.nc.Close()
}
