package sql

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestParseNeverPanics drives the parser with random byte soup and random
// mutations of valid queries: it must return an error or a statement,
// never panic.
func TestParseNeverPanics(t *testing.T) {
	f := func(input string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on input %q: %v", input, r)
				ok = false
			}
		}()
		_, _ = Parse(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParseMutatedQueries mutates valid queries by deleting, duplicating
// and swapping tokens; the parser must stay panic-free and must still
// accept the unmutated forms.
func TestParseMutatedQueries(t *testing.T) {
	seeds := []string{
		"SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'",
		"SELECT city, COUNT(*) FROM s GROUP BY city",
		"SELECT SUM(x * 2 - -3) AS total FROM s WHERE x / 4 >= 2.5e1",
		"SELECT PERCENTILE(x, 0.99), MAX(y) FROM t WHERE a > 1 AND b < 2 OR NOT c = 3",
		"SELECT region, MIN(price) lo, COUNT(*) FROM orders WHERE (region <> 'east') GROUP BY region",
	}
	src := rng.New(7)
	for _, q := range seeds {
		if _, err := Parse(q); err != nil {
			t.Fatalf("seed query rejected: %s: %v", q, err)
		}
		tokens := strings.Fields(q)
		for trial := 0; trial < 200; trial++ {
			mut := append([]string(nil), tokens...)
			switch src.Intn(3) {
			case 0: // delete a token
				i := src.Intn(len(mut))
				mut = append(mut[:i], mut[i+1:]...)
			case 1: // duplicate a token
				i := src.Intn(len(mut))
				mut = append(mut[:i+1], mut[i:]...)
			case 2: // swap two tokens
				i, j := src.Intn(len(mut)), src.Intn(len(mut))
				mut[i], mut[j] = mut[j], mut[i]
			}
			input := strings.Join(mut, " ")
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on mutated query %q: %v", input, r)
					}
				}()
				_, _ = Parse(input)
			}()
		}
	}
}

// TestLexerUnicodeAndLongInput exercises lexer edge cases.
func TestLexerUnicodeAndLongInput(t *testing.T) {
	// Unicode identifiers are letters per the lexer: accepted as idents.
	if _, err := Parse("SELECT AVG(durée) FROM sessions"); err != nil {
		t.Errorf("unicode identifier rejected: %v", err)
	}
	// A very long but valid query parses.
	var sb strings.Builder
	sb.WriteString("SELECT AVG(x) FROM t WHERE x > 0")
	for i := 0; i < 500; i++ {
		sb.WriteString(" AND x < 1000000")
	}
	if _, err := Parse(sb.String()); err != nil {
		t.Errorf("long conjunction rejected: %v", err)
	}
	// Deep parenthesis nesting parses without stack issues at sane depth.
	expr := "x"
	for i := 0; i < 200; i++ {
		expr = "(" + expr + ")"
	}
	if _, err := Parse("SELECT AVG(" + expr + ") FROM t"); err != nil {
		t.Errorf("nested parens rejected: %v", err)
	}
}
