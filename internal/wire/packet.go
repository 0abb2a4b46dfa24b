// Package wire speaks a minimal server-side subset of the MySQL
// client/server protocol, so any tooling with a MySQL driver can issue
// approximate queries and read estimates with error bars out of ordinary
// resultsets (the VerdictDB argument: a standard interface is what makes
// an AQP engine adoptable). The subset: HandshakeV10 +
// HandshakeResponse41 with a mysql_native_password auth hook, COM_QUERY /
// COM_PING / COM_INIT_DB / COM_QUIT, and text-protocol resultsets. Every
// query routes through the serve admission layer, so connection traffic
// is governed by the same in-flight bounds, FIFO queue and deadlines as
// in-process callers.
//
// The decoder trusts nothing: every length is bounds-checked against the
// configured packet cap, malformed frames surface ErrMalformed (the
// connection closes with a metered error, never a panic — FuzzWirePacket
// pins this), and sequence-id violations are protocol errors.
package wire

import (
	"errors"
	"fmt"
	"io"
)

const (
	// maxChunk is the largest single-frame payload the framing can carry;
	// longer payloads continue in follow-up frames.
	maxChunk = 0xffffff
	// defaultMaxPacket bounds a reassembled payload unless configured.
	defaultMaxPacket = 1 << 20
)

// ErrMalformed reports a protocol violation in an incoming packet. The
// connection that produced it is closed.
var ErrMalformed = errors.New("wire: malformed packet")

// readPacket reads one protocol payload: a sequence of frames, each a
// 3-byte little-endian length + 1-byte sequence id header, reassembled
// until a frame shorter than maxChunk ends the payload. The sequence id
// must match *seq and increments per frame. max bounds the reassembled
// size.
func readPacket(r io.Reader, seq *uint8, max int) ([]byte, error) {
	var hdr [4]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		n := int(hdr[0]) | int(hdr[1])<<8 | int(hdr[2])<<16
		if hdr[3] != *seq {
			return nil, fmt.Errorf("%w: sequence id %d, want %d", ErrMalformed, hdr[3], *seq)
		}
		*seq++
		if len(payload)+n > max {
			return nil, fmt.Errorf("%w: payload exceeds %d bytes", ErrMalformed, max)
		}
		if n > 0 {
			chunk := make([]byte, n)
			if _, err := io.ReadFull(r, chunk); err != nil {
				return nil, err
			}
			payload = append(payload, chunk...)
		}
		if n < maxChunk {
			return payload, nil
		}
	}
}

// appendPacket appends one payload to b, framed and split at maxChunk (a
// payload of exactly k·maxChunk bytes is terminated by an empty frame, per
// protocol).
func appendPacket(b []byte, seq *uint8, payload []byte) []byte {
	for {
		n := min(len(payload), maxChunk)
		b = append(b, byte(n), byte(n>>8), byte(n>>16), *seq)
		*seq++
		b = append(b, payload[:n]...)
		payload = payload[n:]
		if n < maxChunk {
			return b
		}
	}
}

// writePacket frames one payload and writes it in one Write: a response of
// one packet.
func writePacket(w io.Writer, seq *uint8, payload []byte) error {
	_, err := w.Write(appendPacket(make([]byte, 0, 4+len(payload)), seq, payload))
	return err
}

// appendLenencInt appends a length-encoded integer.
func appendLenencInt(b []byte, v uint64) []byte {
	switch {
	case v < 0xfb:
		return append(b, byte(v))
	case v <= 0xffff:
		return append(b, 0xfc, byte(v), byte(v>>8))
	case v <= 0xffffff:
		return append(b, 0xfd, byte(v), byte(v>>8), byte(v>>16))
	default:
		return append(b, 0xfe, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
}

// lenencInt decodes a length-encoded integer, returning the value and the
// number of bytes consumed. ok is false on truncation or on the 0xfb
// (NULL) and 0xff (ERR-marker) first bytes, which are not integers.
func lenencInt(b []byte) (v uint64, n int, ok bool) {
	if len(b) == 0 {
		return 0, 0, false
	}
	switch c := b[0]; {
	case c < 0xfb:
		return uint64(c), 1, true
	case c == 0xfc:
		if len(b) < 3 {
			return 0, 0, false
		}
		return uint64(b[1]) | uint64(b[2])<<8, 3, true
	case c == 0xfd:
		if len(b) < 4 {
			return 0, 0, false
		}
		return uint64(b[1]) | uint64(b[2])<<8 | uint64(b[3])<<16, 4, true
	case c == 0xfe:
		if len(b) < 9 {
			return 0, 0, false
		}
		v = uint64(b[1]) | uint64(b[2])<<8 | uint64(b[3])<<16 | uint64(b[4])<<24 |
			uint64(b[5])<<32 | uint64(b[6])<<40 | uint64(b[7])<<48 | uint64(b[8])<<56
		return v, 9, true
	default: // 0xfb (NULL), 0xff (ERR)
		return 0, 0, false
	}
}

// appendLenencBytes appends a length-encoded string.
func appendLenencBytes(b, s []byte) []byte {
	b = appendLenencInt(b, uint64(len(s)))
	return append(b, s...)
}

// lenencBytes decodes a length-encoded string, returning the value and
// bytes consumed.
func lenencBytes(b []byte) (s []byte, n int, ok bool) {
	v, n, ok := lenencInt(b)
	if !ok {
		return nil, 0, false
	}
	if uint64(len(b)-n) < v {
		return nil, 0, false
	}
	return b[n : n+int(v)], n + int(v), true
}

// nullTermBytes splits b at the first NUL, returning the prefix and the
// remainder after the NUL.
func nullTermBytes(b []byte) (s, rest []byte, ok bool) {
	for i, c := range b {
		if c == 0 {
			return b[:i], b[i+1:], true
		}
	}
	return nil, nil, false
}

// MySQL error codes for the subset of outcomes the daemon produces.
const (
	errTooManyConnections = 1040 // ER_CON_COUNT_ERROR
	errHandshake          = 1043 // ER_HANDSHAKE_ERROR
	errAccessDenied       = 1045 // ER_ACCESS_DENIED_ERROR
	errUnknownCom         = 1047 // ER_UNKNOWN_COM_ERROR
	errOutOfResources     = 1041 // ER_OUT_OF_RESOURCES (admission queue full)
	errServerShutdown     = 1053 // ER_SERVER_SHUTDOWN
	errParse              = 1064 // ER_PARSE_ERROR
	errNetPacketTooLarge  = 1153 // ER_NET_PACKET_TOO_LARGE
	errUnsupportedPS      = 1295 // ER_UNSUPPORTED_PS
	errQueryInterrupted   = 1317 // ER_QUERY_INTERRUPTED
	errMalformedPacket    = 1835 // ER_MALFORMED_PACKET
	errQueryTimeout       = 3024 // ER_QUERY_TIMEOUT
)

// okPayload builds an OK packet (affected rows 0, insert id 0, autocommit
// status, no warnings).
func okPayload() []byte {
	return []byte{0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00}
}

// eofPayload builds an EOF packet (no warnings, autocommit status).
func eofPayload() []byte {
	return []byte{0xfe, 0x00, 0x00, 0x02, 0x00}
}

// errPayload builds an ERR packet with a SQLSTATE marker.
func errPayload(code uint16, sqlState, msg string) []byte {
	if len(sqlState) != 5 {
		sqlState = "HY000"
	}
	b := make([]byte, 0, 9+len(msg))
	b = append(b, 0xff, byte(code), byte(code>>8), '#')
	b = append(b, sqlState...)
	return append(b, msg...)
}

// parseErrPayload decodes an ERR packet into a *ServerError.
func parseErrPayload(p []byte) *ServerError {
	e := &ServerError{}
	if len(p) < 3 {
		return e
	}
	e.Code = uint16(p[1]) | uint16(p[2])<<8
	rest := p[3:]
	if len(rest) >= 6 && rest[0] == '#' {
		e.State = string(rest[1:6])
		rest = rest[6:]
	}
	e.Message = string(rest)
	return e
}

// ServerError is an ERR packet surfaced to a client.
type ServerError struct {
	Code    uint16
	State   string
	Message string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("wire: server error %d (%s): %s", e.Code, e.State, e.Message)
}
