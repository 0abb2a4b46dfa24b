package sql

import (
	"testing"
)

// FuzzParse drives the lexer and recursive-descent parser with arbitrary
// byte strings. The contract under fuzzing: Parse never panics, and when it
// accepts an input, the statement round-trips — String() re-parses to an
// equal rendering (the property the hand-written tests check on the happy
// path, here enforced on everything the fuzzer can reach).
func FuzzParse(f *testing.F) {
	// Seed corpus: the grammar's happy paths and every malformed shape the
	// unit tests enumerate, so the fuzzer starts at the grammar frontier.
	seeds := []string{
		"SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'",
		"SELECT city, AVG(time) AS avg_t, COUNT(*) cnt FROM s GROUP BY city, day",
		"SELECT a + b * c FROM t WHERE x > 1 AND y < 2 OR NOT z = 3",
		"SELECT SUM(x * 2 - -3) FROM t WHERE x / 4 >= 2.5e1",
		"SELECT x FROM t WHERE a != b",
		"SELECT x FROM t WHERE a <> b",
		"SELECT x FROM t WHERE a <= b AND c >= d",
		"SELECT x FROM t WHERE name = 'O''Brien'",
		"SELECT x -- the column\nFROM t",
		"SELECT PERCENTILE(latency, 0.99) FROM t",
		"SELECT SUM(x) AS total FROM s WHERE NOT (x < -1)",
		"SELECT PERCENTILE(v, 0.9) AS p90, MAX(v / 2) FROM s WHERE a <> 'b' GROUP BY a",
		"SELECT region, MIN(price) lo, COUNT(*) FROM orders WHERE (region <> 'east') GROUP BY region",
		"select avg(x) from t where y > 0 group by z",
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT x",
		"SELECT x FROM",
		"SELECT x FROM t WHERE",
		"SELECT x FROM t GROUP",
		"SELECT x FROM t GROUP BY",
		"SELECT x FROM t extra garbage (",
		"SELECT x FROM t WHERE name = 'unterminated",
		"SELECT x FROM t UNION ALL SELECT y FROM u",
		"SELECT AVG(a) FROM (SELECT SUM(v) AS a FROM s) AS q",
		"SELECT x FROM t TABLESAMPLE POISSONIZED (100)",
		"SELECT f(x FROM t",
		"SELECT (x FROM t",
		"SELECT x FROM t WHERE a ! b",
		"SELECT 1.2.3 FROM t",
		"SELECT x FROM t WHERE !",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input) // must not panic on any input
		if err != nil {
			return
		}
		// Accepted input: the rendering must be stable under re-parsing.
		r1 := stmt.String()
		stmt2, err := Parse(r1)
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", input, r1, err)
		}
		if r2 := stmt2.String(); r2 != r1 {
			t.Fatalf("rendering not a fixed point:\n  input: %q\n  first: %q\n  second: %q",
				input, r1, r2)
		}
	})
}
