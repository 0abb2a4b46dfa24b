package sql

import "strings"

// Parse parses one SELECT statement.
func Parse(src string) (Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, errf(p.cur().pos, "unexpected trailing input %s", p.cur())
	}
	return stmt, nil
}

// MustParse is Parse but panics on error; for tests and generated queries.
func MustParse(src string) Statement {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return errf(p.cur().pos, "expected %s, found %s", kw, p.cur())
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == sym {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return errf(p.cur().pos, "expected %q, found %s", sym, p.cur())
	}
	return nil
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if p.cur().kind != tokIdent {
		return nil, errf(p.cur().pos, "expected table name, found %s", p.cur())
	}
	sel.From = p.advance().text
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			if p.cur().kind != tokIdent {
				return nil, errf(p.cur().pos, "expected column name in GROUP BY, found %s", p.cur())
			}
			sel.GroupBy = append(sel.GroupBy, p.advance().text)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		if p.cur().kind != tokIdent {
			return SelectItem{}, errf(p.cur().pos, "expected alias after AS, found %s", p.cur())
		}
		item.Alias = p.advance().text
	} else if p.cur().kind == tokIdent {
		// Bare alias: SELECT avg(x) answer FROM ...
		item.Alias = p.advance().text
	}
	return item, nil
}

// Expression grammar, lowest to highest precedence:
//
//	or   := and (OR and)*
//	and  := not (AND not)*
//	not  := NOT not | cmp
//	cmp  := add ((= != < <= > >=) add)?
//	add  := mul ((+ -) mul)*
//	mul  := unary ((* /) unary)*
//	unary := - unary | primary
//	primary := number | string | ident | ident(args) | ( expr ) | *
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", E: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokSymbol {
		switch p.cur().text {
		case "=", "!=", "<", "<=", ">", ">=":
			op := p.advance().text
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "+" || p.cur().text == "-") {
		op := p.advance().text
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol && (p.cur().text == "*" || p.cur().text == "/") {
		op := p.advance().text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur().kind == tokSymbol && p.cur().text == "-" {
		p.advance()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.advance()
		return &Literal{Num: t.num}, nil
	case t.kind == tokString:
		p.advance()
		return &Literal{Str: t.text, IsStr: true}, nil
	case t.kind == tokSymbol && t.text == "*":
		p.advance()
		return &Star{}, nil
	case t.kind == tokSymbol && t.text == "(":
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		p.advance()
		if p.acceptSymbol("(") {
			call := &FuncCall{Name: strings.ToUpper(t.text)}
			if !p.acceptSymbol(")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.acceptSymbol(",") {
						break
					}
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		return &ColumnRef{Name: t.text}, nil
	default:
		return nil, errf(t.pos, "expected expression, found %s", t)
	}
}
