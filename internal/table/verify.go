package table

// Payload checks. A store OpenStoreVerified opened has had its frame — header,
// block tables, metadata — checked against the file's digest, and the frame
// lists one sum per column payload. The payloads themselves are checked on
// first read: whatever reads a column first (a scan, through CheckColumn, or
// failing that the column's own block decode) hashes its payload once, and
// the outcome sticks for every later reader. A column nothing reads is never
// hashed.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// CorruptColumnError is the refusal of a column whose payload does not match
// the sum its store file lists: the bytes are not what the writer wrote.
type CorruptColumnError struct {
	Column string
}

func (e *CorruptColumnError) Error() string {
	return fmt.Sprintf("table: corrupt store (column %q: payload does not match its sum)", e.Column)
}

// payloadCheck is one column payload's listed sum and whether the payload has
// been checked against it yet. A column without one (nil) has nothing to
// check: it was built in memory or opened by the unverified OpenStore.
type payloadCheck struct {
	column string
	sum    []byte
	mu     sync.Mutex  // held by the one reader that hashes
	done   atomic.Bool // set once err holds the outcome
	err    error
}

// verify checks data, the payload, against the sum the first time it is
// called; readers racing the first wait for it and hash nothing. It returns
// the bytes this call hashed.
func (p *payloadCheck) verify(data []byte) (int64, error) {
	if p == nil {
		return 0, nil
	}
	if p.done.Load() {
		return 0, p.err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done.Load() {
		return 0, p.err
	}
	if !bytes.Equal(storeDigest([][]byte{data}, runtime.GOMAXPROCS(0)), p.sum) {
		p.err = &CorruptColumnError{Column: p.column}
	}
	p.done.Store(true)
	return int64(len(data)), p.err
}

// strictChecks makes the backstop a failure: see StrictChecks.
var strictChecks atomic.Bool

// StrictChecks sets whether a block decode of a column no one has checked
// panics instead of checking it. Off, the decode runs the check itself, as a
// backstop behind the readers that call CheckColumn; on, a test proves that
// every read path checks first.
func StrictChecks(on bool) { strictChecks.Store(on) }

// backstop runs before every block decode of a column with a payload check.
// Every reader is meant to have checked the column already (CheckColumn);
// one that did not gets the check here. A decode cannot return an error, so a
// payload refused here panics rather than decode bytes no writer wrote.
func (p *payloadCheck) backstop(data []byte) {
	if p == nil || p.done.Load() && p.err == nil {
		return
	}
	if strictChecks.Load() && !p.done.Load() {
		panic(fmt.Sprintf("table: column %q decoded before its payload was checked", p.column))
	}
	if _, err := p.verify(data); err != nil {
		panic(err)
	}
}

// CheckColumn checks c's payload against the sum its store file lists, if c
// came from OpenStoreVerified and no reader has checked it yet. It returns
// the payload bytes this call hashed: 0 when the column was checked before,
// or has no sum to check. The outcome sticks: a refused column is refused,
// by a *CorruptColumnError, on every call.
func CheckColumn(c Column) (int64, error) {
	switch c := c.(type) {
	case *F64BlockCol:
		return c.check.verify(c.data)
	case *I64BlockCol:
		return c.check.verify(c.data)
	case *StrBlockCol:
		return c.check.verify(c.data)
	}
	return 0, nil
}
