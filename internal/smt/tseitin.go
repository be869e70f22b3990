package smt

import (
	"fmt"

	"cpr/internal/expr"
	"cpr/internal/smt/sat"
)

// encoder Tseitin-encodes the boolean skeleton of a purified, simplified
// formula into a CDCL solver, keeping the map from theory atoms to SAT
// variables for the DPLL(T) loop. A Solver keeps one encoder for its
// lifetime and resets it before each query.
type encoder struct {
	sat      *sat.Solver
	atomVar  map[*expr.Term]int // theory atom → SAT var
	boolVar  map[string]int     // named boolean variable → SAT var
	cache    map[*expr.Term]sat.Lit
	trueLit  sat.Lit
	haveTrue bool

	// support walk scratch
	model []bool
	seen  map[*expr.Term]bool
	supp  []suppLit
}

func newEncoder() *encoder {
	return &encoder{
		sat:     sat.New(),
		atomVar: make(map[*expr.Term]int),
		boolVar: make(map[string]int),
		cache:   make(map[*expr.Term]sat.Lit),
		seen:    make(map[*expr.Term]bool),
	}
}

// maxRetainedEntries caps the maps a reset keeps: a query that grew one
// past it leaves it to the garbage collector rather than pinning it (and
// paying to clear it) for every later query.
const maxRetainedEntries = 1 << 12

// reset returns the encoder to the state newEncoder creates, keeping its
// storage.
func (e *encoder) reset() {
	e.sat.Reset()
	e.atomVar = resetMap(e.atomVar)
	e.boolVar = resetMap(e.boolVar)
	e.cache = resetMap(e.cache)
	e.seen = resetMap(e.seen)
	e.haveTrue = false
	e.model, e.supp = nil, e.supp[:0]
}

// resetMap empties m for reuse, or replaces it past the retention cap.
func resetMap[K comparable, V any](m map[K]V) map[K]V {
	if m == nil || len(m) > maxRetainedEntries {
		return make(map[K]V)
	}
	clear(m)
	return m
}

func (e *encoder) constTrue() sat.Lit {
	if !e.haveTrue {
		v := e.sat.NewVar()
		e.trueLit = sat.MkLit(v, false)
		e.sat.AddClause(e.trueLit)
		e.haveTrue = true
	}
	return e.trueLit
}

// encode returns a literal equivalent to the subformula t.
func (e *encoder) encode(t *expr.Term) sat.Lit {
	if l, ok := e.cache[t]; ok {
		return l
	}
	var l sat.Lit
	switch t.Op {
	case expr.OpBoolConst:
		if t.Val == 1 {
			l = e.constTrue()
		} else {
			l = e.constTrue().Not()
		}
	case expr.OpVar:
		v, ok := e.boolVar[t.Name]
		if !ok {
			v = e.sat.NewVar()
			e.boolVar[t.Name] = v
		}
		l = sat.MkLit(v, false)
	case expr.OpLe, expr.OpLt, expr.OpGe, expr.OpGt:
		l = e.atomLit(t)
	case expr.OpEq, expr.OpNe:
		if t.Args[0].Sort == expr.SortInt {
			l = e.atomLit(t)
			break
		}
		// Boolean iff / xor.
		a := e.encode(t.Args[0])
		b := e.encode(t.Args[1])
		g := sat.MkLit(e.sat.NewVar(), false)
		e.sat.AddClause(g.Not(), a.Not(), b)
		e.sat.AddClause(g.Not(), a, b.Not())
		e.sat.AddClause(g, a, b)
		e.sat.AddClause(g, a.Not(), b.Not())
		if t.Op == expr.OpNe {
			g = g.Not()
		}
		l = g
	case expr.OpNot:
		l = e.encode(t.Args[0]).Not()
	case expr.OpAnd:
		l = e.andGate(t.Args)
	case expr.OpOr:
		lits := make([]sat.Lit, len(t.Args))
		for i, a := range t.Args {
			lits[i] = e.encode(a)
		}
		g := sat.MkLit(e.sat.NewVar(), false)
		long := make([]sat.Lit, 0, len(lits)+1)
		long = append(long, g.Not())
		for _, li := range lits {
			e.sat.AddClause(g, li.Not())
			long = append(long, li)
		}
		e.sat.AddClause(long...)
		l = g
	case expr.OpImplies:
		a := e.encode(t.Args[0])
		b := e.encode(t.Args[1])
		g := sat.MkLit(e.sat.NewVar(), false)
		e.sat.AddClause(g.Not(), a.Not(), b)
		e.sat.AddClause(g, a)
		e.sat.AddClause(g, b.Not())
		l = g
	case expr.OpIte: // boolean-sorted ite
		c := e.encode(t.Args[0])
		a := e.encode(t.Args[1])
		b := e.encode(t.Args[2])
		g := sat.MkLit(e.sat.NewVar(), false)
		e.sat.AddClause(g.Not(), c.Not(), a)
		e.sat.AddClause(g.Not(), c, b)
		e.sat.AddClause(g, c.Not(), a.Not())
		e.sat.AddClause(g, c, b.Not())
		l = g
	default:
		panic(fmt.Sprintf("smt: encode: unexpected boolean operator %v in %v", t.Op, t))
	}
	e.cache[t] = l
	return l
}

// andGate returns a fresh literal equivalent to the conjunction of args.
func (e *encoder) andGate(args []*expr.Term) sat.Lit {
	lits := make([]sat.Lit, len(args))
	for i, a := range args {
		lits[i] = e.encode(a)
	}
	g := sat.MkLit(e.sat.NewVar(), false)
	long := make([]sat.Lit, 0, len(lits)+1)
	long = append(long, g)
	for _, li := range lits {
		e.sat.AddClause(g.Not(), li)
		long = append(long, li.Not())
	}
	e.sat.AddClause(long...)
	return g
}

// encodeConj returns a literal equivalent to a non-empty conjunct list as
// expr.AndArgs builds it. It emits exactly the clauses encode would for
// the conjunction's term, in the same order, without that term: a single
// conjunct is the term itself, and a longer list gets the root And gate.
func (e *encoder) encodeConj(conj []*expr.Term) sat.Lit {
	if len(conj) == 1 {
		return e.encode(conj[0])
	}
	return e.andGate(conj)
}

// suppLit is a theory atom with the polarity the support set requires.
type suppLit struct {
	atom     *expr.Term
	positive bool
}

// litValue reads the truth value of an encoded subformula off a SAT model.
func (e *encoder) litValue(t *expr.Term, model []bool) bool {
	l, ok := e.cache[t]
	if !ok {
		panic("smt: support: unencoded subformula")
	}
	return model[l.Var()] != l.Neg()
}

// support extracts a subset of theory literals that by itself forces the
// asserted conjunct list true under the given skeleton model: a cheap
// prime implicant. The conjunction is asserted, so every conjunct is
// followed — the walk a true root And gets. Below it, for a true
// disjunction one true child suffices; for a false conjunction one false
// child suffices; everything else is followed according to its model
// value. The returned slice is reused by the next call.
func (e *encoder) support(conj []*expr.Term, model []bool) []suppLit {
	e.model = model
	e.supp = e.supp[:0]
	clear(e.seen)
	for _, t := range conj {
		e.mark(t)
	}
	return e.supp
}

func (e *encoder) mark(t *expr.Term) {
	if e.seen[t] {
		return
	}
	e.seen[t] = true
	model := e.model
	val := e.litValue(t, model)
	switch t.Op {
	case expr.OpBoolConst:
		// constants need no support
	case expr.OpVar:
		// boolean decision variables carry no theory content
	case expr.OpLe, expr.OpLt, expr.OpGe, expr.OpGt:
		e.supp = append(e.supp, suppLit{atom: t, positive: val})
	case expr.OpEq, expr.OpNe:
		if t.Args[0].Sort == expr.SortInt {
			e.supp = append(e.supp, suppLit{atom: t, positive: val})
			return
		}
		e.mark(t.Args[0])
		e.mark(t.Args[1])
	case expr.OpNot:
		e.mark(t.Args[0])
	case expr.OpAnd:
		if val {
			for _, a := range t.Args {
				e.mark(a)
			}
			return
		}
		for _, a := range t.Args {
			if !e.litValue(a, model) {
				e.mark(a)
				return
			}
		}
	case expr.OpOr:
		if !val {
			for _, a := range t.Args {
				e.mark(a)
			}
			return
		}
		for _, a := range t.Args {
			if e.litValue(a, model) {
				e.mark(a)
				return
			}
		}
	case expr.OpImplies:
		if !val {
			e.mark(t.Args[0])
			e.mark(t.Args[1])
			return
		}
		if !e.litValue(t.Args[0], model) {
			e.mark(t.Args[0])
			return
		}
		e.mark(t.Args[1])
	case expr.OpIte:
		e.mark(t.Args[0])
		if e.litValue(t.Args[0], model) {
			e.mark(t.Args[1])
		} else {
			e.mark(t.Args[2])
		}
	default:
		panic("smt: support: unexpected operator " + t.Op.String())
	}
}

func (e *encoder) atomLit(t *expr.Term) sat.Lit {
	v, ok := e.atomVar[t]
	if !ok {
		v = e.sat.NewVar()
		e.atomVar[t] = v
	}
	return sat.MkLit(v, false)
}
