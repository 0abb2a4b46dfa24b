// Package sql implements the SQL subset the engine accepts: one SELECT over
// one stored table, with aggregate expressions, arithmetic, WHERE filters
// and GROUP BY. The engine draws every resample itself (§5.3), so the
// paper's §5.2 rewrite surface — UNION ALL, subqueries in FROM and
// TABLESAMPLE POISSONIZED — is not part of the grammar.
package sql

import "fmt"

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // ( ) , * + - / = < > <= >= != <>
	tokKeyword // SELECT FROM WHERE GROUP BY AS AND OR NOT
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "EOF"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokSymbol:
		return "symbol"
	case tokKeyword:
		return "keyword"
	default:
		return "unknown"
	}
}

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokKind
	text string // keywords are upper-cased; identifiers keep original case
	num  float64
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords recognized by the lexer (case-insensitive in input).
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"AS": true, "AND": true, "OR": true, "NOT": true,
}

// Error is a parse or lex error with a byte position into the query text.
type Error struct {
	Pos int
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("sql: %s (at offset %d)", e.Msg, e.Pos)
}

func errf(pos int, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
