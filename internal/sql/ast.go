package sql

import (
	"fmt"
	"strings"
)

// Statement is a parsed SQL statement; the only one is *Select.
type Statement interface {
	// String renders the statement back to SQL (round-trippable).
	String() string
	stmt()
}

// Select is a single SELECT statement.
type Select struct {
	Items   []SelectItem
	From    string   // the stored table's name
	Where   Expr     // nil when absent
	GroupBy []string // empty when absent
}

func (*Select) stmt() {}

func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(it.Alias)
		}
	}
	sb.WriteString(" FROM ")
	sb.WriteString(s.From)
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(s.GroupBy, ", "))
	}
	return sb.String()
}

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// Expr is an expression node: *Literal, *ColumnRef, *Binary, *Unary,
// *FuncCall or *Star.
type Expr interface {
	String() string
	expr()
}

// Literal is a numeric or string constant.
type Literal struct {
	Num   float64
	Str   string
	IsStr bool
}

func (*Literal) expr() {}

func (l *Literal) String() string {
	if l.IsStr {
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	}
	// %g never emits trailing fractional zeros, so the value round-trips
	// as-is; trimming zeros here would corrupt integers (100 -> "1").
	return fmt.Sprintf("%g", l.Num)
}

// ColumnRef names a column.
type ColumnRef struct {
	Name string
}

func (*ColumnRef) expr() {}

func (c *ColumnRef) String() string { return c.Name }

// Star is the * in COUNT(*).
type Star struct{}

func (*Star) expr() {}

func (*Star) String() string { return "*" }

// Binary is a binary operation. Op is one of
// + - * / = != < <= > >= AND OR.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) expr() {}

func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// Unary is a unary operation: "-" or "NOT".
type Unary struct {
	Op string
	E  Expr
}

func (*Unary) expr() {}

func (u *Unary) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.E.String() + ")"
	}
	return "(" + u.Op + u.E.String() + ")"
}

// FuncCall is an aggregate or scalar function application. Name is stored
// upper-cased.
type FuncCall struct {
	Name string
	Args []Expr
}

func (*FuncCall) expr() {}

func (f *FuncCall) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	return f.Name + "(" + strings.Join(args, ", ") + ")"
}

// Columns returns the distinct column names referenced by the expression,
// in first-appearance order.
func Columns(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *ColumnRef:
			key := strings.ToLower(v.Name)
			if !seen[key] {
				seen[key] = true
				out = append(out, v.Name)
			}
		case *Binary:
			walk(v.L)
			walk(v.R)
		case *Unary:
			walk(v.E)
		case *FuncCall:
			for _, a := range v.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}
