package sql

import (
	"slices"
	"strings"
	"testing"
)

func TestParseSimpleSelect(t *testing.T) {
	stmt, err := Parse("SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'")
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := stmt.(*Select)
	if !ok {
		t.Fatalf("statement type %T", stmt)
	}
	if len(sel.Items) != 1 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	call, ok := sel.Items[0].Expr.(*FuncCall)
	if !ok || call.Name != "AVG" {
		t.Fatalf("item = %v", sel.Items[0].Expr)
	}
	if sel.From != "Sessions" {
		t.Fatalf("from = %q", sel.From)
	}
	cmp, ok := sel.Where.(*Binary)
	if !ok || cmp.Op != "=" {
		t.Fatalf("where = %v", sel.Where)
	}
	lit, ok := cmp.R.(*Literal)
	if !ok || !lit.IsStr || lit.Str != "NYC" {
		t.Fatalf("where rhs = %v", cmp.R)
	}
}

// refusedAt asserts that q fails to parse with a positioned *Error pointing
// at the first occurrence of token.
func refusedAt(t *testing.T, q, token string) {
	t.Helper()
	_, err := Parse(q)
	var perr *Error
	if !errorsAs(err, &perr) {
		t.Fatalf("Parse(%q) = %v, want *Error", q, err)
	}
	if want := strings.Index(q, token); perr.Pos != want {
		t.Errorf("Parse(%q) refused at offset %d (%v), want %d (%q)", q, perr.Pos, err, want, token)
	}
}

// TestParseTableSample: the engine draws every resample itself, so the
// §5.2 TABLESAMPLE POISSONIZED clause is refused at the clause.
func TestParseTableSample(t *testing.T) {
	refusedAt(t, "SELECT SUM(x) FROM s TABLESAMPLE POISSONIZED (100)", "TABLESAMPLE")
}

func TestParseGroupByAndAliases(t *testing.T) {
	stmt := MustParse("SELECT city, AVG(time) AS avg_t, COUNT(*) cnt FROM s GROUP BY city, day")
	sel := stmt.(*Select)
	if len(sel.Items) != 3 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if sel.Items[1].Alias != "avg_t" || sel.Items[2].Alias != "cnt" {
		t.Fatalf("aliases = %q, %q", sel.Items[1].Alias, sel.Items[2].Alias)
	}
	if len(sel.GroupBy) != 2 || sel.GroupBy[0] != "city" || sel.GroupBy[1] != "day" {
		t.Fatalf("group by = %v", sel.GroupBy)
	}
	if _, ok := sel.Items[2].Expr.(*FuncCall).Args[0].(*Star); !ok {
		t.Fatal("COUNT(*) star argument not parsed")
	}
}

// TestParseUnionAll: a statement is one SELECT; the §5.2 UNION ALL of
// resample subqueries is refused at UNION.
func TestParseUnionAll(t *testing.T) {
	refusedAt(t, "SELECT AVG(x) FROM s UNION ALL SELECT AVG(x) FROM s", "UNION")
}

// TestParseNestedSubquery: FROM names a stored table; a subquery is
// refused at its opening parenthesis.
func TestParseNestedSubquery(t *testing.T) {
	refusedAt(t, "SELECT AVG(a) FROM (SELECT SUM(v) AS a FROM s) AS q", "(SELECT")
}

func TestParseExpressionPrecedence(t *testing.T) {
	stmt := MustParse("SELECT a + b * c FROM t WHERE x > 1 AND y < 2 OR NOT z = 3")
	sel := stmt.(*Select)
	add := sel.Items[0].Expr.(*Binary)
	if add.Op != "+" {
		t.Fatalf("top op = %s", add.Op)
	}
	if mul := add.R.(*Binary); mul.Op != "*" {
		t.Fatal("* should bind tighter than +")
	}
	or := sel.Where.(*Binary)
	if or.Op != "OR" {
		t.Fatalf("where top = %s", or.Op)
	}
	and := or.L.(*Binary)
	if and.Op != "AND" {
		t.Fatal("AND should bind tighter than OR")
	}
	not := or.R.(*Unary)
	if not.Op != "NOT" {
		t.Fatal("NOT missing")
	}
}

func TestParseArithmeticAndUnaryMinus(t *testing.T) {
	stmt := MustParse("SELECT SUM(x * 2 - -3) FROM t WHERE x / 4 >= 2.5e1")
	sel := stmt.(*Select)
	cmp := sel.Where.(*Binary)
	if cmp.Op != ">=" {
		t.Fatalf("op = %s", cmp.Op)
	}
	if lit := cmp.R.(*Literal); lit.Num != 25 {
		t.Fatalf("scientific literal = %v", lit.Num)
	}
}

func TestParseComparatorVariants(t *testing.T) {
	for _, q := range []string{
		"SELECT x FROM t WHERE a != b",
		"SELECT x FROM t WHERE a <> b",
	} {
		sel := MustParse(q).(*Select)
		if sel.Where.(*Binary).Op != "!=" {
			t.Errorf("%s: op = %s", q, sel.Where.(*Binary).Op)
		}
	}
	sel := MustParse("SELECT x FROM t WHERE a <= b AND c >= d").(*Select)
	and := sel.Where.(*Binary)
	if and.L.(*Binary).Op != "<=" || and.R.(*Binary).Op != ">=" {
		t.Error("<=/>= not parsed")
	}
}

func TestParseStringEscapes(t *testing.T) {
	sel := MustParse("SELECT x FROM t WHERE name = 'O''Brien'").(*Select)
	lit := sel.Where.(*Binary).R.(*Literal)
	if lit.Str != "O'Brien" {
		t.Fatalf("escaped string = %q", lit.Str)
	}
}

func TestParseComments(t *testing.T) {
	sel := MustParse("SELECT x -- the column\nFROM t").(*Select)
	if sel.From != "t" {
		t.Fatal("comment not skipped")
	}
}

func TestParsePercentile(t *testing.T) {
	sel := MustParse("SELECT PERCENTILE(latency, 0.99) FROM t").(*Select)
	call := sel.Items[0].Expr.(*FuncCall)
	if call.Name != "PERCENTILE" || len(call.Args) != 2 {
		t.Fatalf("call = %v", call)
	}
	if call.Args[1].(*Literal).Num != 0.99 {
		t.Fatal("percentile level wrong")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	sel := MustParse("select avg(x) from t where y > 0 group by z").(*Select)
	if sel.Items[0].Expr.(*FuncCall).Name != "AVG" {
		t.Fatal("function name not upper-cased")
	}
	if len(sel.GroupBy) != 1 {
		t.Fatal("lowercase GROUP BY not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
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
		"SELECT x FROM t UNION SELECT x FROM t",
		"SELECT x FROM t UNION ALL SELECT x FROM t",
		"SELECT AVG(a) FROM (SELECT SUM(v) AS a FROM s) AS q",
		"SELECT x FROM t TABLESAMPLE POISSONIZED (100)",
		"SELECT f(x FROM t",
		"SELECT (x FROM t",
		"SELECT x FROM t WHERE a ! b",
		"SELECT 1.2.3 FROM t",
	}
	for _, q := range cases {
		var perr *Error
		if _, err := Parse(q); !errorsAs(err, &perr) {
			t.Errorf("Parse(%q) = %v, want a positioned *Error", q, err)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("SELECT x FROM t WHERE !")
	if err == nil {
		t.Fatal("expected error")
	}
	var perr *Error
	if !errorsAs(err, &perr) {
		t.Fatalf("error type %T", err)
	}
	if perr.Pos <= 0 {
		t.Errorf("position = %d", perr.Pos)
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("error text %q lacks offset", err.Error())
	}
}

// errorsAs avoids importing errors for one call.
func errorsAs(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

func TestRoundTripStrings(t *testing.T) {
	queries := []string{
		"SELECT AVG(Time) FROM Sessions WHERE (City = 'NYC')",
		"SELECT SUM(x) AS total FROM s WHERE NOT (x < -1)",
		"SELECT city, COUNT(*) FROM s GROUP BY city",
		"SELECT PERCENTILE(v, 0.9) AS p90, MAX(v / 2) FROM s WHERE a <> 'b' GROUP BY a",
	}
	for _, q := range queries {
		stmt := MustParse(q)
		rendered := stmt.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Errorf("round-trip re-parse of %q failed: %v", rendered, err)
			continue
		}
		if again.String() != rendered {
			t.Errorf("round trip not stable: %q -> %q", rendered, again.String())
		}
	}
}

func TestColumns(t *testing.T) {
	sel := MustParse("SELECT a + b * f(a, -d) FROM t WHERE c > 0").(*Select)
	columns := func(e Expr) []string {
		var out []string
		EachColumn(e, func(name string) { out = append(out, name) })
		return out
	}
	if cols := columns(sel.Items[0].Expr); !slices.Equal(cols, []string{"a", "b", "a", "d"}) {
		t.Errorf("EachColumn visits %v", cols)
	}
	if cols := columns(sel.Where); !slices.Equal(cols, []string{"c"}) {
		t.Errorf("EachColumn visits %v in the WHERE", cols)
	}
	if cols := columns(nil); cols != nil {
		t.Errorf("EachColumn visits %v in no expression", cols)
	}
	visit := func(string) {}
	if n := testing.AllocsPerRun(100, func() { EachColumn(sel.Items[0].Expr, visit) }); n != 0 {
		t.Errorf("EachColumn allocates %v times per walk", n)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("not sql at all")
}

func TestLiteralString(t *testing.T) {
	if (&Literal{Num: 2.5}).String() != "2.5" {
		t.Errorf("numeric literal = %q", (&Literal{Num: 2.5}).String())
	}
	if (&Literal{Str: "a'b", IsStr: true}).String() != "'a''b'" {
		t.Errorf("string literal = %q", (&Literal{Str: "a'b", IsStr: true}).String())
	}
}
