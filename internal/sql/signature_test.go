package sql

import "testing"

func TestPredicateSignature(t *testing.T) {
	cases := []struct {
		expr Expr
		want string
	}{
		{nil, NoPredicate},
		{
			&Binary{Op: "=",
				L: &ColumnRef{Name: "City"},
				R: &Literal{Str: "NYC", IsStr: true}},
			"(city = ?)",
		},
		{
			&Binary{Op: "AND",
				L: &Binary{Op: ">",
					L: &ColumnRef{Name: "Time"},
					R: &Literal{Num: 100}},
				R: &Binary{Op: "=",
					L: &ColumnRef{Name: "Browser"},
					R: &Literal{Str: "chrome", IsStr: true}}},
			"((time > ?) AND (browser = ?))",
		},
		{
			&Unary{Op: "NOT", E: &ColumnRef{Name: "Flag"}},
			"(NOT flag)",
		},
		{
			&FuncCall{Name: "ABS", Args: []Expr{&ColumnRef{Name: "X"}}},
			"ABS(x)",
		},
	}
	for _, c := range cases {
		if got := PredicateSignature(c.expr); got != c.want {
			t.Errorf("signature = %q, want %q", got, c.want)
		}
	}
	// Literal-only difference must collapse to one signature.
	a := &Binary{Op: ">", L: &ColumnRef{Name: "T"}, R: &Literal{Num: 1}}
	b := &Binary{Op: ">", L: &ColumnRef{Name: "t"}, R: &Literal{Num: 999}}
	if PredicateSignature(a) != PredicateSignature(b) {
		t.Error("predicates differing only in literals got distinct signatures")
	}
}
