package wire

// Test-only client and listener calls for the wire_test package: no front
// end logs in with a password or an initial database, pings, drops a
// connection without COM_QUIT, or counts open connections.

// DialAuth is Dial sending a mysql_native_password secret and an initial
// database ("" for none).
func DialAuth(addr string, opt ClientOptions, password, database string) (*Client, error) {
	opt.password, opt.database = password, database
	return Dial(addr, opt)
}

// Ping round-trips COM_PING.
func (c *Client) Ping() error {
	c.deadline()
	seq := uint8(0)
	if err := writePacket(c.nc, &seq, []byte{0x0e}); err != nil {
		return err
	}
	p, err := readPacket(c.br, &seq, clientMaxPacket)
	if err != nil {
		return err
	}
	if len(p) > 0 && p[0] == 0xff {
		return parseErrPayload(p)
	}
	return nil
}

// CloseAbruptly severs the TCP connection with no COM_QUIT — the churn
// tests use it to model clients dying mid-exchange.
func (c *Client) CloseAbruptly() error {
	return c.nc.Close()
}

// Open returns the number of currently open connections.
func (l *Listener) Open() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}
