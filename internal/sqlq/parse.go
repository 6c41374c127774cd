package sqlq

import "strconv"

// SelectStmt is the parsed form of a query.
type SelectStmt struct {
	Distinct bool
	// Columns is nil for SELECT *.
	Columns []ColRef
	Table   string
	Alias   string
	Where   Expr // nil when absent
	OrderBy []OrderKey
	Limit   int // -1 when absent
	Offset  int // 0 when absent
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Col  ColRef
	Desc bool
}

// Expr is a boolean or value expression node.
type Expr interface{ isExpr() }

// ColRef names a column, optionally alias-qualified.
type ColRef struct {
	Qualifier string // "" or the table alias
	Name      string
}

// Literal is a string or numeric constant; Null marks IS NULL sentinels.
type Literal struct {
	Str   *string
	Num   *float64
	IsNul bool
}

// Param is a $named placeholder bound at execution time.
type Param struct{ Name string }

// BinaryExpr is AND/OR.
type BinaryExpr struct {
	Op   string // "AND" | "OR"
	L, R Expr
}

// NotExpr negates its operand.
type NotExpr struct{ E Expr }

// Comparison applies =, <>, <, <=, >, >= between two value expressions.
type Comparison struct {
	Op   string
	L, R Expr
}

// LikeExpr is col [NOT] LIKE pattern.
type LikeExpr struct {
	Col     Expr
	Pattern Expr
	Negate  bool
}

// InExpr is col [NOT] IN (v1, v2, ...).
type InExpr struct {
	Col    Expr
	Values []Expr
	Negate bool
}

// IsNullExpr is col IS [NOT] NULL.
type IsNullExpr struct {
	Col    Expr
	Negate bool
}

func (ColRef) isExpr()     {}
func (Literal) isExpr()    {}
func (Param) isExpr()      {}
func (BinaryExpr) isExpr() {}
func (NotExpr) isExpr()    {}
func (Comparison) isExpr() {}
func (LikeExpr) isExpr()   {}
func (InExpr) isExpr()     {}
func (IsNullExpr) isExpr() {}

// Parse compiles a query string into a SelectStmt.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, errf(p.peek().pos, "unexpected %s after end of statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks        []token
	i           int
	connectives int // NOT, AND, OR and parenthesised groups parsed so far
}

// maxConnectives bounds the boolean connectives of one WHERE clause. The
// parser recurses once per NOT and per parenthesised group, and the
// evaluator once per level of the tree they and the AND/OR chains build, so
// without a bound a request body of a million '(' overflows the goroutine
// stack — a fatal error no recover catches.
const maxConnectives = 1000

// connective counts one more connective, the one just accepted.
func (p *parser) connective() error {
	if p.connectives++; p.connectives > maxConnectives {
		return errf(p.peek().pos, "WHERE clause has more than %d connectives", maxConnectives)
	}
	return nil
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// at reports whether the current token has the given kind (and text, when
// non-empty).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = "identifier"
		}
		return token{}, errf(p.peek().pos, "expected %s, found %s", want, p.peek())
	}
	return p.advance(), nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.accept(tokKeyword, "DISTINCT")

	if p.accept(tokSymbol, "*") {
		stmt.Columns = nil
	} else {
		for {
			col, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}

	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	stmt.Table = tbl.text
	if p.at(tokIdent, "") {
		stmt.Alias = p.advance().text
	}

	if p.accept(tokKeyword, "WHERE") {
		stmt.Where, err = p.parseOr()
		if err != nil {
			return nil, err
		}
	}

	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Col: col}
			if p.accept(tokKeyword, "DESC") {
				key.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, key)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}

	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		stmt.Limit = n
		if p.accept(tokKeyword, "OFFSET") {
			m, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			stmt.Offset = m
		}
	}
	return stmt, nil
}

func (p *parser) parseInt() (int, error) {
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, errf(t.pos, "expected non-negative integer, found %q", t.text)
	}
	return n, nil
}

func (p *parser) parseColRef() (ColRef, error) {
	first, err := p.expect(tokIdent, "")
	if err != nil {
		return ColRef{}, err
	}
	if p.accept(tokSymbol, ".") {
		second, err := p.expect(tokIdent, "")
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Qualifier: first.text, Name: second.text}, nil
	}
	return ColRef{Name: first.text}, nil
}

// parseOr handles OR (lowest precedence).
func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		if err := p.connective(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		if err := p.connective(); err != nil {
			return nil, err
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		if err := p.connective(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return NotExpr{E: e}, nil
	}
	return p.parsePredicate()
}

// parsePredicate parses a parenthesized boolean group or a comparison.
func (p *parser) parsePredicate() (Expr, error) {
	if p.accept(tokSymbol, "(") {
		if err := p.connective(); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	left, err := p.parseValue()
	if err != nil {
		return nil, err
	}

	negate := false
	if p.at(tokKeyword, "NOT") {
		// col NOT LIKE / col NOT IN
		save := p.i
		p.advance()
		if p.at(tokKeyword, "LIKE") || p.at(tokKeyword, "IN") {
			negate = true
		} else {
			p.i = save
		}
	}

	switch {
	case p.accept(tokKeyword, "LIKE"):
		pat, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		return LikeExpr{Col: left, Pattern: pat, Negate: negate}, nil
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var vals []Expr
		for {
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return InExpr{Col: left, Values: vals, Negate: negate}, nil
	case p.accept(tokKeyword, "IS"):
		neg := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return IsNullExpr{Col: left, Negate: neg}, nil
	}

	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.accept(tokSymbol, op) {
			right, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return Comparison{Op: op, L: left, R: right}, nil
		}
	}
	return nil, errf(p.peek().pos, "expected comparison operator, found %s", p.peek())
}

func (p *parser) parseValue() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokIdent:
		return p.parseColRef()
	case tokString:
		p.advance()
		s := t.text
		return Literal{Str: &s}, nil
	case tokNumber:
		p.advance()
		n, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errf(t.pos, "bad number %q", t.text)
		}
		return Literal{Num: &n}, nil
	case tokParam:
		p.advance()
		return Param{Name: t.text}, nil
	case tokKeyword:
		if t.text == "NULL" {
			p.advance()
			return Literal{IsNul: true}, nil
		}
	}
	return nil, errf(t.pos, "expected value, found %s", t)
}
