package tsql

import (
	"fmt"
	"strconv"

	"tqp/internal/expr"
	"tqp/internal/relation"
	"tqp/internal/value"
)

// ast types — kept separate from the algebra so that plan construction
// (build.go) can apply the Definition 5.1 result-type analysis and the
// sequenced/nonsequenced mapping in one place.

type queryAST struct {
	validTime bool
	selects   []*selectAST
	setOps    []string // between selects: "UNION", "UNION ALL", "EXCEPT"
	orderBy   relation.OrderSpec
}

type selectAST struct {
	distinct  bool
	coalesced bool
	star      bool
	items     []itemAST
	from      []fromItem
	where     expr.Pred
	groupBy   []string
}

// fromItem is one FROM entry: a relation name with an optional time-travel
// restriction (FOR SYSTEM_TIME AS OF t | FOR PERIOD (a, b)).
type fromItem struct {
	name   string
	travel *travelAST
}

type travelAST struct {
	asOf       bool  // FOR SYSTEM_TIME AS OF t
	t          int64 // the AS OF chronon
	start, end int64 // FOR PERIOD (start, end)
}

type itemAST struct {
	e   expr.Expr
	agg *expr.Aggregate
	as  string
}

type parser struct {
	toks []token
	pos  int
}

// ParseError is the error Parse returns for a statement outside the
// dialect; errors.As tells it apart from the planning errors that follow a
// successful parse.
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

// Parse parses one statement. Every error it returns is a *ParseError.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	p := &parser{toks: toks}
	ast, err := p.query()
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	if !p.at(tokEOF, "") {
		return nil, &ParseError{Err: fmt.Errorf("tsql: trailing input at %q", p.cur().text)}
	}
	return &Query{ast: ast, Text: input}, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }
func (p *parser) at(k tokenKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokenKind, text string) bool {
	if p.at(k, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, text string) (token, error) {
	t := p.cur()
	if !p.at(k, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", k)
		}
		return token{}, fmt.Errorf("tsql: expected %s, found %q at %d", want, t.text, t.pos)
	}
	p.advance()
	return t, nil
}

func (p *parser) query() (*queryAST, error) {
	q := &queryAST{}
	q.validTime = p.accept(tokKeyword, "VALIDTIME")
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	q.selects = append(q.selects, sel)
	for {
		var op string
		switch {
		case p.accept(tokKeyword, "UNION"):
			op = "UNION"
			if p.accept(tokKeyword, "ALL") {
				op = "UNION ALL"
			}
		case p.accept(tokKeyword, "EXCEPT"):
			op = "EXCEPT"
		case p.accept(tokKeyword, "INTERSECT"):
			op = "INTERSECT"
		default:
			op = ""
		}
		if op == "" {
			break
		}
		// An optional repeated VALIDTIME/SELECT introduces the next branch.
		p.accept(tokKeyword, "VALIDTIME")
		next, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		q.setOps = append(q.setOps, op)
		q.selects = append(q.selects, next)
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			id, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			dir := relation.Asc
			if p.accept(tokKeyword, "DESC") {
				dir = relation.Desc
			} else {
				p.accept(tokKeyword, "ASC")
			}
			q.orderBy = append(q.orderBy, relation.OrderKey{Attr: id.text, Dir: dir})
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	return q, nil
}

func (p *parser) selectStmt() (*selectAST, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &selectAST{}
	s.distinct = p.accept(tokKeyword, "DISTINCT")
	s.coalesced = p.accept(tokKeyword, "COALESCED")
	if p.accept(tokSymbol, "*") {
		s.star = true
	} else {
		for {
			it, err := p.item()
			if err != nil {
				return nil, err
			}
			s.items = append(s.items, it)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		id, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		item := fromItem{name: id.text}
		if p.accept(tokKeyword, "FOR") {
			tr, err := p.travel()
			if err != nil {
				return nil, err
			}
			item.travel = tr
		}
		s.from = append(s.from, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		pred, err := p.pred()
		if err != nil {
			return nil, err
		}
		s.where = pred
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			id, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			s.groupBy = append(s.groupBy, id.text)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	return s, nil
}

// travel parses the body of a FROM-clause FOR restriction:
//
//	FOR SYSTEM_TIME AS OF <chronon>
//	FOR PERIOD ( <chronon> , <chronon> )
func (p *parser) travel() (*travelAST, error) {
	switch {
	case p.accept(tokKeyword, "SYSTEM_TIME"):
		if _, err := p.expect(tokKeyword, "AS"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "OF"); err != nil {
			return nil, err
		}
		t, err := p.chronon()
		if err != nil {
			return nil, err
		}
		return &travelAST{asOf: true, t: t}, nil
	case p.accept(tokKeyword, "PERIOD"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		a, err := p.chronon()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ","); err != nil {
			return nil, err
		}
		b, err := p.chronon()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &travelAST{start: a, end: b}, nil
	}
	return nil, fmt.Errorf("tsql: expected SYSTEM_TIME or PERIOD after FOR, found %q at %d", p.cur().text, p.cur().pos)
}

// chronon parses an integer time point, allowing a leading minus.
func (p *parser) chronon() (int64, error) {
	neg := p.accept(tokSymbol, "-")
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("tsql: chronon must be an integer, got %q at %d", t.text, t.pos)
	}
	if neg {
		v = -v
	}
	return v, nil
}

var aggFuncs = map[string]expr.AggFunc{
	"COUNT": expr.Count, "SUM": expr.Sum, "AVG": expr.Avg,
	"MIN": expr.Min, "MAX": expr.Max,
}

func (p *parser) item() (itemAST, error) {
	if fn, ok := aggFuncs[p.cur().text]; ok && p.cur().kind == tokKeyword {
		name := p.cur().text
		p.advance()
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return itemAST{}, err
		}
		agg := expr.Aggregate{Func: fn}
		if p.accept(tokSymbol, "*") {
			if fn != expr.Count {
				return itemAST{}, fmt.Errorf("tsql: %s(*) is not valid", name)
			}
			agg.Func = expr.CountAll
		} else {
			id, err := p.expect(tokIdent, "")
			if err != nil {
				return itemAST{}, err
			}
			agg.Arg = id.text
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return itemAST{}, err
		}
		it := itemAST{agg: &agg}
		if p.accept(tokKeyword, "AS") {
			id, err := p.expect(tokIdent, "")
			if err != nil {
				return itemAST{}, err
			}
			it.as = id.text
		}
		return it, nil
	}
	e, err := p.expr()
	if err != nil {
		return itemAST{}, err
	}
	it := itemAST{e: e}
	if p.accept(tokKeyword, "AS") {
		id, err := p.expect(tokIdent, "")
		if err != nil {
			return itemAST{}, err
		}
		it.as = id.text
	}
	return it, nil
}

// pred := andPred { OR andPred }
func (p *parser) pred() (expr.Pred, error) {
	left, err := p.andPred()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.andPred()
		if err != nil {
			return nil, err
		}
		left = expr.Disj(left, right)
	}
	return left, nil
}

func (p *parser) andPred() (expr.Pred, error) {
	left, err := p.notPred()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.notPred()
		if err != nil {
			return nil, err
		}
		left = expr.Conj(left, right)
	}
	return left, nil
}

func (p *parser) notPred() (expr.Pred, error) {
	if p.accept(tokKeyword, "NOT") {
		inner, err := p.notPred()
		if err != nil {
			return nil, err
		}
		return expr.Neg(inner), nil
	}
	return p.basePred()
}

func (p *parser) basePred() (expr.Pred, error) {
	if p.at(tokKeyword, "PERIOD") {
		return p.periodPred()
	}
	if p.accept(tokSymbol, "(") {
		inner, err := p.pred()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	if p.accept(tokKeyword, "TRUE") {
		return expr.TruePred{}, nil
	}
	left, err := p.expr()
	if err != nil {
		return nil, err
	}
	opTok, err := p.expect(tokCompare, "")
	if err != nil {
		return nil, err
	}
	right, err := p.expr()
	if err != nil {
		return nil, err
	}
	var op expr.CmpOp
	switch opTok.text {
	case "=":
		op = expr.Eq
	case "<>":
		op = expr.Ne
	case "<":
		op = expr.Lt
	case "<=":
		op = expr.Le
	case ">":
		op = expr.Gt
	case ">=":
		op = expr.Ge
	}
	return expr.Compare(op, left, right), nil
}

func (p *parser) periodPred() (expr.Pred, error) {
	a1, a2, err := p.periodArgs()
	if err != nil {
		return nil, err
	}
	var op expr.PeriodOp
	switch {
	case p.accept(tokKeyword, "OVERLAPS"):
		op = expr.POverlaps
	case p.accept(tokKeyword, "CONTAINS"):
		op = expr.PContains
	case p.accept(tokKeyword, "MEETS"):
		op = expr.PMeets
	case p.accept(tokKeyword, "PRECEDES"):
		op = expr.PPrecedes
	default:
		return nil, fmt.Errorf("tsql: expected a period predicate after PERIOD(...)")
	}
	b1, b2, err := p.periodArgs()
	if err != nil {
		return nil, err
	}
	return expr.PeriodPred{Op: op, AStart: a1, AEnd: a2, BStart: b1, BEnd: b2}, nil
}

func (p *parser) periodArgs() (expr.Expr, expr.Expr, error) {
	if _, err := p.expect(tokKeyword, "PERIOD"); err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, nil, err
	}
	a, err := p.expr()
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokSymbol, ","); err != nil {
		return nil, nil, err
	}
	b, err := p.expr()
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// expr := term { (+|-) term }; term := factor { (*|/) factor }
func (p *parser) expr() (expr.Expr, error) {
	left, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.ArithOp
		switch {
		case p.accept(tokSymbol, "+"):
			op = expr.Add
		case p.accept(tokSymbol, "-"):
			op = expr.Sub
		default:
			return left, nil
		}
		right, err := p.term()
		if err != nil {
			return nil, err
		}
		left = expr.Arith{Op: op, L: left, R: right}
	}
}

func (p *parser) term() (expr.Expr, error) {
	left, err := p.factor()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.ArithOp
		switch {
		case p.accept(tokSymbol, "*"):
			op = expr.Mul
		case p.accept(tokSymbol, "/"):
			op = expr.Div
		default:
			return left, nil
		}
		right, err := p.factor()
		if err != nil {
			return nil, err
		}
		left = expr.Arith{Op: op, L: left, R: right}
	}
}

func (p *parser) factor() (expr.Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokIdent:
		p.advance()
		return expr.Column(t.text), nil
	case t.kind == tokNumber:
		p.advance()
		if i, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return expr.Literal(value.Int(i)), nil
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("tsql: bad number %q", t.text)
		}
		return expr.Literal(value.Float(f)), nil
	case t.kind == tokString:
		p.advance()
		return expr.Literal(value.String_(t.text)), nil
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.advance()
		return expr.Literal(value.Bool(t.text == "TRUE")), nil
	case t.kind == tokSymbol && t.text == "(":
		p.advance()
		inner, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, fmt.Errorf("tsql: unexpected token %q at %d", t.text, t.pos)
	}
}
