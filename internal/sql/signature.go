package sql

// Predicate-signature canonicalization. Two WHERE clauses that differ only
// in their literal constants describe the same predicate *shape* — the
// thing whose selectivity distribution is worth learning. The signature
// replaces every literal with "?", lower-cases column names, and renders
// the rest structurally, so
//
//	WHERE Time > 100 AND Browser = 'chrome'
//	WHERE Time > 250 AND Browser = 'safari'
//
// both canonicalize to ((time > ?) AND (browser = ?)) and share a profile
// key. The rendering deliberately does NOT sort commutative operands or
// normalize flipped comparisons: the parser already fixes an
// association order, and collapsing semantically-equal-but-differently-
// written predicates would hide real workload structure (clients that
// phrase a filter differently are different clients).

import "strings"

// NoPredicate is the signature of a query without a WHERE clause.
const NoPredicate = "true"

// PredicateSignature canonicalizes a predicate expression: literals
// become "?", column names lower-case, structure preserved. A nil
// expression (no WHERE clause) yields NoPredicate.
func PredicateSignature(e Expr) string {
	if e == nil {
		return NoPredicate
	}
	var b strings.Builder
	signExpr(&b, e)
	return b.String()
}

func signExpr(b *strings.Builder, e Expr) {
	switch n := e.(type) {
	case nil:
		b.WriteString(NoPredicate)
	case *Literal:
		b.WriteByte('?')
	case *ColumnRef:
		b.WriteString(strings.ToLower(n.Name))
	case *Star:
		b.WriteByte('*')
	case *Binary:
		b.WriteByte('(')
		signExpr(b, n.L)
		b.WriteByte(' ')
		b.WriteString(n.Op)
		b.WriteByte(' ')
		signExpr(b, n.R)
		b.WriteByte(')')
	case *Unary:
		b.WriteByte('(')
		b.WriteString(n.Op)
		b.WriteByte(' ')
		signExpr(b, n.E)
		b.WriteByte(')')
	case *FuncCall:
		b.WriteString(strings.ToUpper(n.Name))
		b.WriteByte('(')
		for i, a := range n.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			signExpr(b, a)
		}
		b.WriteByte(')')
	default:
		// Future node types degrade to their SQL rendering rather than
		// silently merging into one bucket.
		b.WriteString(e.String())
	}
}
