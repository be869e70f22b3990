package smt

import (
	"errors"
	"testing"

	"cpr/internal/cancel"
	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/smt/cache"
)

// The tests in this file run one long-lived Solver over a query stream
// shaped like the repair loop. Each query resets and reuses the solver's
// encoder, CDCL instance and LIA bounds box, so the stream is where
// leftover state from an earlier query would show.

// incrementalBattery is a query sequence shaped like the repair loop:
// shared path-constraint prefixes, per-patch suffixes, several bounds
// boxes, purification (div/ite), boolean structure, and repeats. The same
// formula deliberately recurs under different bounds boxes — the verdict
// flips with the box, so domains left behind in the reused LIA box would
// show as a wrong verdict.
func incrementalBattery() []struct {
	f      *expr.Term
	bounds map[string]interval.Interval
} {
	x := expr.IntVar("x")
	y := expr.IntVar("y")
	a := expr.IntVar("a")
	p := expr.BoolVar("p")
	prefix := []*expr.Term{
		expr.Ge(x, expr.Int(0)),
		expr.Le(x, expr.Int(80)),
		expr.Ne(y, expr.Int(0)),
	}
	mid := expr.Gt(expr.Add(x, y), expr.Int(5))
	narrow := map[string]interval.Interval{"x": interval.New(0, 3), "y": interval.New(-5, 5)}
	wide := map[string]interval.Interval{"x": interval.New(0, 100), "y": interval.New(-100, 100), "a": interval.New(-10, 10)}
	boxed := expr.And(expr.Gt(x, expr.Int(5)), expr.Lt(x, expr.Int(10)))

	var qs []struct {
		f      *expr.Term
		bounds map[string]interval.Interval
	}
	add := func(f *expr.Term, b map[string]interval.Interval) {
		qs = append(qs, struct {
			f      *expr.Term
			bounds map[string]interval.Interval
		}{f, b})
	}

	// Box-sensitivity first: unsat under the narrow box, sat under the
	// wide one. A leaked domain would make the second query unsat too.
	add(boxed, narrow)
	add(boxed, wide)
	add(boxed, narrow)

	// Shared-prefix patch queries, sat and unsat mixes.
	for k := int64(0); k < 6; k++ {
		patch := expr.Ge(expr.Add(x, y), expr.Add(a, expr.Int(k)))
		add(expr.And(append(append([]*expr.Term{}, prefix...), mid, patch)...), wide)
		contra := expr.And(expr.Lt(x, expr.Int(-1-k))) // conflicts with prefix
		add(expr.And(append(append([]*expr.Term{}, prefix...), contra)...), wide)
	}
	// Repeats.
	add(expr.And(append([]*expr.Term{mid}, prefix...)...), wide)
	add(expr.And(append([]*expr.Term{mid}, prefix...)...), narrow)

	// Purification: div/rem and integer ite behind boolean structure.
	add(expr.And(
		expr.Eq(expr.Div(x, y), expr.Int(3)),
		expr.Gt(y, expr.Int(0)),
	), wide)
	add(expr.Or(
		expr.And(p, expr.Eq(expr.Ite(p, x, y), expr.Int(7))),
		expr.Lt(expr.Rem(x, expr.Int(5)), expr.Int(0)),
	), wide)

	// Trivia and degenerate shapes.
	add(expr.True(), wide)
	add(expr.And(expr.Eq(x, expr.Int(1)), expr.Eq(x, expr.Int(2))), wide)
	add(p, nil)
	return qs
}

// TestIncrementalDifferentialVerdicts: one long-lived solver deciding the
// whole battery must agree with a fresh solver's Check on every query.
func TestIncrementalDifferentialVerdicts(t *testing.T) {
	long := NewSolver(Options{})
	seen := map[Status]int{}
	for i, q := range incrementalBattery() {
		st, err := long.Decide(q.f, q.bounds)
		if err != nil {
			t.Fatalf("query %d: long-lived Decide: %v", i, err)
		}
		want, err := NewSolver(Options{}).Check(q.f, q.bounds)
		if err != nil {
			t.Fatalf("query %d: fresh Check: %v", i, err)
		}
		if st != want.Status {
			t.Fatalf("query %d (%v): long-lived=%v fresh=%v", i, q.f, st, want.Status)
		}
		seen[st]++
	}
	if seen[Sat] == 0 || seen[Unsat] == 0 {
		t.Fatalf("battery decided %v; it must mix sat and unsat", seen)
	}
}

// TestIncrementalModelsIdentical: Check on a long-lived solver must return
// bit-identical models to a fresh solver per query — the property the
// repair-result differential test builds on.
func TestIncrementalModelsIdentical(t *testing.T) {
	long := NewSolver(Options{})
	for i, q := range incrementalBattery() {
		got, err1 := long.Check(q.f, q.bounds)
		want, err2 := NewSolver(Options{}).Check(q.f, q.bounds)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d: error mismatch: %v vs %v", i, err1, err2)
		}
		if got.Status != want.Status {
			t.Fatalf("query %d: status %v vs %v", i, got.Status, want.Status)
		}
		if renderModel(got.Model) != renderModel(want.Model) {
			t.Fatalf("query %d: model diverged:\nlong-lived: %v\nfresh:      %v", i, got.Model, want.Model)
		}
	}
}

// TestIncrementalBudgetDoesNotPoison: a query aborted by a conflict budget
// leaves the reused storage mid-search; later queries on the same solver
// must still get correct verdicts.
func TestIncrementalBudgetDoesNotPoison(t *testing.T) {
	s := NewSolver(Options{MaxConflicts: 8})
	st, err := s.Decide(pigeonhole(5), nil)
	if st != Unknown || !errors.Is(err, ErrBudget) {
		t.Fatalf("pigeonhole under MaxConflicts=8: %v, %v; want unknown budget abort", st, err)
	}
	// The budget is per-query: the same solver must still answer easy
	// queries correctly afterwards.
	x := expr.IntVar("x")
	b := map[string]interval.Interval{"x": interval.New(0, 50)}
	easy := expr.Eq(x, expr.Int(7))
	if st, err := s.Decide(easy, b); err != nil || st != Sat {
		t.Fatalf("easy sat query after budget abort: %v, %v", st, err)
	}
	if st, err := s.Decide(expr.And(easy, expr.Eq(x, expr.Int(8))), b); err != nil || st != Unsat {
		t.Fatalf("easy unsat query after budget abort: %v, %v", st, err)
	}
}

// TestIncrementalCancellation: once the solver's token expires, every
// later query on the long-lived solver degrades to Unknown with a
// deadline budget error, whatever it answered before.
func TestIncrementalCancellation(t *testing.T) {
	tok := cancel.New()
	s := NewSolver(Options{Cancel: tok})
	x := expr.IntVar("x")
	f := expr.Gt(x, expr.Int(0))
	if st, err := s.Decide(expr.Lt(x, expr.Int(3)), nil); err != nil || st != Sat {
		t.Fatalf("Decide before cancellation = %v, %v", st, err)
	}
	tok.Cancel()
	st, err := s.Decide(f, nil)
	if st != Unknown || !errors.Is(err, ErrBudget) {
		t.Fatalf("cancelled Decide = %v, %v; want unknown with budget error", st, err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Stage != "deadline" {
		t.Fatalf("error %v is not a deadline budget error", err)
	}
	if res, err := s.Check(f, nil); err == nil || res.Status != Unknown {
		t.Fatalf("cancelled Check = %v, %v", res.Status, err)
	}
}

// TestIncrementalFaultInjectionMidSequence: injected solver faults —
// including panics recovered at the query boundary — must not poison the
// reused storage: every non-faulted query still answers correctly across
// the battery.
func TestIncrementalFaultInjectionMidSequence(t *testing.T) {
	for _, kind := range []faultinject.Fault{faultinject.SolverPanic, faultinject.SolverTimeout, faultinject.SolverFail} {
		// One plan per kind: its every-Nth counter must persist across the
		// deactivate/reactivate windows around the fresh reference solves.
		plan := &faultinject.Plan{SolverEvery: 3, SolverKind: kind}
		faultinject.Activate(plan)
		long := NewSolver(Options{})
		faulted, answered := 0, 0
		for i, q := range incrementalBattery() {
			st, err := long.Decide(q.f, q.bounds)
			if err != nil {
				faulted++
				if st == Sat || st == Unsat {
					t.Fatalf("kind %v query %d: decisive verdict alongside error %v", kind, i, err)
				}
				continue
			}
			answered++
			faultinject.Deactivate() // the fresh reference must not fault
			want, werr := NewSolver(Options{}).Check(q.f, q.bounds)
			faultinject.Activate(plan)
			if werr != nil {
				t.Fatalf("kind %v query %d: fresh reference: %v", kind, i, werr)
			}
			if st != want.Status {
				t.Fatalf("kind %v query %d: verdict %v diverged from fresh %v after faults", kind, i, st, want.Status)
			}
		}
		faultinject.Deactivate()
		if faulted == 0 || answered == 0 {
			t.Fatalf("kind %v: battery too small to exercise faults (faulted=%d answered=%d)", kind, faulted, answered)
		}
		if kind == faultinject.SolverPanic && long.Stats().Panics == 0 {
			t.Fatal("panic faults not recorded in stats")
		}
	}
}

// TestIncrementalCacheInteraction: on a long-lived solver, verdict-only
// entries serve repeated Decides, Check upgrades an entry with a model,
// and an unsat verdict feeds the subsumption index for later supersets.
func TestIncrementalCacheInteraction(t *testing.T) {
	c := cache.New(cache.Options{})
	s := NewSolver(Options{Cache: c})
	x := expr.IntVar("x")
	y := expr.IntVar("y")
	b := map[string]interval.Interval{"x": interval.New(0, 50), "y": interval.New(0, 50)}

	// Sat Decide stores a verdict-only entry; repeat Decide hits it.
	f := expr.Gt(expr.Add(x, y), expr.Int(10))
	if st, err := s.Decide(f, b); err != nil || st != Sat {
		t.Fatalf("Decide: %v, %v", st, err)
	}
	before := c.Stats()
	if st, err := s.Decide(f, b); err != nil || st != Sat {
		t.Fatalf("repeat Decide: %v, %v", st, err)
	}
	if after := c.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("repeat Decide missed the verdict cache: %+v -> %+v", before, after)
	}
	// Check on the same query upgrades the entry with a model.
	res, err := s.Check(f, b)
	if err != nil || res.Status != Sat || res.Model == nil {
		t.Fatalf("Check after verdict-only: %+v, %v", res, err)
	}
	res2, err := s.Check(f, b)
	if err != nil || renderModel(res2.Model) != renderModel(res.Model) {
		t.Fatalf("model entry not cached: %+v, %v", res2, err)
	}

	// An unsat verdict indexes its conjuncts: a later query whose
	// conjuncts are a superset, under the same domains, is answered by
	// subsumption without a solve.
	p := expr.BoolVar("cp")
	q := expr.BoolVar("cq")
	clash := []*expr.Term{p, expr.Implies(p, q), expr.Not(q)}
	if st, err := s.Decide(expr.And(clash...), b); err != nil || st != Unsat {
		t.Fatalf("clash query: %v, %v", st, err)
	}
	pre, rounds := c.Stats(), s.Stats().TheoryRounds
	if st, err := s.Decide(expr.And(append(clash, expr.Lt(y, expr.Int(49)))...), b); err != nil || st != Unsat {
		t.Fatalf("superset query: %v, %v", st, err)
	}
	if post := c.Stats(); post.Subsumed != pre.Subsumed+1 {
		t.Fatalf("unsat verdict did not feed subsumption: %+v -> %+v", pre, post)
	}
	if s.Stats().TheoryRounds != rounds {
		t.Fatal("subsumed query was solved")
	}
}

// TestIncrementalClauseRetentionStats: the long-lived solver reuses
// storage, not clauses. A repeated unsat query must cost exactly what its
// first solve cost — same theory rounds, same learned clauses — because
// nothing learned by one query survives into the next.
func TestIncrementalClauseRetentionStats(t *testing.T) {
	s := NewSolver(Options{})
	x := expr.IntVar("x")
	y := expr.IntVar("y")
	b := map[string]interval.Interval{"x": interval.New(0, 30), "y": interval.New(0, 30)}
	// Propositionally rich unsat query (disjunctions force theory rounds).
	f := expr.And(
		expr.Or(expr.Eq(x, expr.Int(1)), expr.Eq(x, expr.Int(2)), expr.Eq(x, expr.Int(3))),
		expr.Or(expr.Eq(y, expr.Int(4)), expr.Eq(y, expr.Int(5))),
		expr.Gt(expr.Add(x, y), expr.Int(50)),
	)
	if st, err := s.Decide(f, b); err != nil || st != Unsat {
		t.Fatalf("first solve: %v, %v", st, err)
	}
	first := s.Stats()
	if first.TheoryRounds < 2 {
		t.Fatalf("first solve took %d theory rounds; the query must need several", first.TheoryRounds)
	}
	if st, err := s.Decide(f, b); err != nil || st != Unsat {
		t.Fatalf("repeat solve: %v, %v", st, err)
	}
	second := s.Stats()
	if rounds := second.TheoryRounds - first.TheoryRounds; rounds != first.TheoryRounds {
		t.Errorf("repeat spent %d theory rounds, first spent %d: state carried over", rounds, first.TheoryRounds)
	}
	if learned := second.ClausesLearned - first.ClausesLearned; learned != first.ClausesLearned {
		t.Errorf("repeat learned %d clauses, first learned %d: state carried over", learned, first.ClausesLearned)
	}
}
