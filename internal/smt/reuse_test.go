package smt

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cpr/internal/cancel"
	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/smt/cache"
	"cpr/internal/smt/guard"
	"cpr/internal/smt/lia"
)

// pigeonhole returns the propositionally-unsat PHP(holes+1, holes)
// principle: CDCL needs many conflicts to refute it, which makes it a
// reliable way to trip a conflict budget mid-search.
func pigeonhole(holes int) *expr.Term {
	pv := func(i, j int) *expr.Term { return expr.BoolVar(fmt.Sprintf("php_%d_%d", i, j)) }
	var cs []*expr.Term
	for i := 0; i <= holes; i++ {
		row := make([]*expr.Term, holes)
		for j := 0; j < holes; j++ {
			row[j] = pv(i, j)
		}
		cs = append(cs, expr.Or(row...))
	}
	for j := 0; j < holes; j++ {
		for i := 0; i <= holes; i++ {
			for k := i + 1; k <= holes; k++ {
				cs = append(cs, expr.Or(expr.Not(pv(i, j)), expr.Not(pv(k, j))))
			}
		}
	}
	return expr.And(cs...)
}

// wantFresh asserts that s answers q exactly as a fresh solver does.
func wantFresh(t *testing.T, s *Solver, q goldenQuery, what string) {
	t.Helper()
	got := goldenAnswer(t, s, q)
	if want := goldenAnswer(t, NewSolver(Options{MaxTheoryRounds: 400}), q); got != want {
		t.Fatalf("%s: %s answered %+v, a fresh solver %+v", what, q.name, got, want)
	}
}

// TestReusedStorageSurvivesAborts: a query that stops mid-search — on a
// conflict budget, a cancelled token, or an injected fault, panics
// included — leaves the solver's reused encoder and CDCL storage in some
// intermediate state. The next query must not see any of it: every later
// answer equals a fresh solver's, model included. A panic also drops the
// simplification memo and the constraint table.
func TestReusedStorageSurvivesAborts(t *testing.T) {
	corpus := goldenCorpus()

	s := NewSolver(Options{MaxConflicts: 8, MaxTheoryRounds: 400})
	if st, err := s.Decide(pigeonhole(5), nil); st != Unknown || !errors.Is(err, ErrBudget) {
		t.Fatalf("pigeonhole under MaxConflicts=8: %v, %v; want a budget abort", st, err)
	}
	for _, q := range corpus[:20] {
		wantFresh(t, s, q, "after a conflict-budget abort")
	}

	tok := cancel.New()
	s = NewSolver(Options{Cancel: tok, MaxTheoryRounds: 400})
	wantFresh(t, s, corpus[0], "before cancellation")
	tok.Cancel()
	_, err := s.Check(corpus[1].f, corpus[1].bounds)
	var be *BudgetError
	if !errors.As(err, &be) || be.Stage != "deadline" {
		t.Fatalf("cancelled Check: %v, want a deadline budget error", err)
	}

	for _, kind := range []faultinject.Fault{faultinject.SolverPanic, faultinject.SolverTimeout, faultinject.SolverFail} {
		// One plan per kind: its every-Nth counter must persist across the
		// windows in which the fresh reference solves run unfaulted.
		plan := &faultinject.Plan{SolverEvery: 3, SolverKind: kind}
		s := NewSolver(Options{MaxTheoryRounds: 400})
		faulted := 0
		for _, q := range corpus {
			faultinject.Activate(plan)
			res, err := s.Check(q.f, q.bounds)
			faultinject.Deactivate()
			if errors.Is(err, ErrSolverPanic) && (s.enc != nil || s.memo != nil || s.atomCons != nil) {
				t.Fatalf("%s: a recovered panic left the reused storage in place", q.name)
			}
			var be *BudgetError
			if errors.Is(err, ErrSolverPanic) || errors.Is(err, faultinject.ErrInjected) ||
				errors.As(err, &be) && be.Stage == "fault-injection" {
				faulted++
				continue
			}
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatalf("fault %v: %s: %v", kind, q.name, err)
			}
			rec := goldenRecord{Name: q.name, Formula: q.f.String(), Status: res.Status.String()}
			if res.Status == Sat {
				rec.Model = renderModel(res.Model)
			}
			if want := goldenAnswer(t, NewSolver(Options{MaxTheoryRounds: 400}), q); rec != want {
				t.Fatalf("fault %v: %s answered %+v after earlier faults, a fresh solver %+v", kind, q.name, rec, want)
			}
		}
		if faulted == 0 {
			t.Fatalf("fault %v never fired", kind)
		}
		if kind == faultinject.SolverPanic && s.Stats().Panics == 0 {
			t.Fatal("panic faults not recorded in stats")
		}
	}

	// A panic inside the theory loop, after the query's front-end work has
	// filled the memo and its first round the constraint table.
	armed := false
	s = NewSolver(Options{MaxTheoryRounds: 400, LIA: lia.Options{Stop: func() bool {
		if armed {
			panic("injected mid-query panic")
		}
		return false
	}}})
	for _, q := range corpus[:20] {
		wantFresh(t, s, q, "before a mid-query panic")
	}
	// x·y = 9973, a prime: the LIA tier enumerates a factor's domain,
	// polling Stop as it goes.
	x, y := expr.IntVar("x"), expr.IntVar("y")
	armed = true
	_, err = s.Check(expr.Eq(expr.Mul(x, y), expr.Int(9973)),
		map[string]interval.Interval{"x": interval.New(2, 4000), "y": interval.New(2, 4000)})
	armed = false
	if !errors.Is(err, ErrSolverPanic) {
		t.Fatalf("mid-query panic: %v, want ErrSolverPanic", err)
	}
	if s.enc != nil || s.memo != nil || s.atomCons != nil {
		t.Fatal("a mid-query panic left the reused storage in place")
	}
	for _, q := range corpus[:20] {
		wantFresh(t, s, q, "after a mid-query panic")
	}
}

// TestVerdictOnlyFeasibility: Decide caches verdicts without models, a
// repeated Decide is served from that entry, and Check — which needs a
// model — re-solves once and then caches the model it returns.
func TestVerdictOnlyFeasibility(t *testing.T) {
	c := cache.New(cache.Options{})
	s := NewSolver(Options{Cache: c})
	x, y := expr.IntVar("x"), expr.IntVar("y")
	b := map[string]interval.Interval{"x": interval.New(0, 50), "y": interval.New(0, 50)}
	f := expr.Gt(expr.Add(x, y), expr.Int(10))

	if st, err := s.Decide(f, b); err != nil || st != Sat {
		t.Fatalf("Decide: %v, %v", st, err)
	}
	ex := c.Export()
	if len(ex.Entries) != 1 || !ex.Entries[0].Value.Sat || ex.Entries[0].Value.Model != nil {
		t.Fatalf("Decide stored %+v, want one verdict-only sat entry", ex.Entries)
	}
	hits := s.Stats().CacheHits
	if st, err := s.Decide(f, b); err != nil || st != Sat || s.Stats().CacheHits != hits+1 {
		t.Fatalf("repeated Decide: %v, %v, hits %d -> %d", st, err, hits, s.Stats().CacheHits)
	}
	if ok, err := s.Valid(expr.Not(f), b); err != nil || ok {
		t.Fatalf("Valid(¬f) = %v, %v, want false", ok, err)
	}

	want, err := NewSolver(Options{}).Check(f, b)
	if err != nil {
		t.Fatal(err)
	}
	misses := s.Stats().CacheMisses
	res, err := s.Check(f, b)
	if err != nil || res.Status != Sat || renderModel(res.Model) != renderModel(want.Model) {
		t.Fatalf("Check after Decide: %+v, %v; want the fresh model %v", res, err, want.Model)
	}
	if s.Stats().CacheMisses != misses+1 {
		t.Fatal("Check was served by a verdict-only entry")
	}
	hits = s.Stats().CacheHits
	res, err = s.Check(f, b)
	if err != nil || renderModel(res.Model) != renderModel(want.Model) || s.Stats().CacheHits != hits+1 {
		t.Fatalf("repeated Check: %+v, %v; the model was not cached", res, err)
	}
}

// TestRejectedVerdictQuarantinesReusedStorage: a verdict the guard rejects
// takes the solver's reused storage out of service — the simplification
// memo and the constraint table included — and the third such failure
// pins the solver to fresh storage. Answers stay those of a fresh solver
// throughout: the lies are caught and re-solved, and fresh storage answers
// exactly as reused storage does.
func TestRejectedVerdictQuarantinesReusedStorage(t *testing.T) {
	corpus := goldenCorpus()
	// A long backoff keeps the quarantine in force however slowly the
	// queries run, so the query after a rejection is sure to see it.
	s := NewSolver(Options{MaxTheoryRounds: 400, Guard: guard.Config{RebuildBackoff: time.Hour, RebuildBackoffMax: time.Hour}})
	faultinject.Activate(&faultinject.Plan{LieEvery: 1, LieKind: faultinject.SolverFlipModel})
	rejected := 0
	dropDue := false
	for _, q := range corpus {
		if s.guard.BreakerOpen() {
			break
		}
		before := s.Stats().ValidationFailures
		res, err := s.Check(q.f, q.bounds)
		if dropDue && markerPlanted(s) {
			t.Fatalf("%s: the tables survived the quarantine of the reused storage", q.name)
		}
		dropDue = false
		if err != nil || s.Stats().ValidationFailures == before {
			continue
		}
		rejected++
		if s.guard.RungAvailable() && !s.guard.BreakerOpen() {
			t.Fatalf("%s: rejected verdict left the reused storage in service", q.name)
		}
		if want := goldenAnswer(t, NewSolver(Options{MaxTheoryRounds: 400}), q); renderModel(res.Model) != want.Model {
			t.Fatalf("%s: served %v after a rejected verdict, a fresh solver %+v", q.name, res.Model, want)
		}
		plantMarker(s)
		dropDue = true
	}
	faultinject.Deactivate()
	if rejected != 3 || !s.guard.BreakerOpen() {
		t.Fatalf("%d rejected verdicts, breaker open %v; want the third to trip it", rejected, s.guard.BreakerOpen())
	}
	if c := s.guard.Counters(); c.BreakerTrips != 1 || c.Quarantines != 3 {
		t.Fatalf("guard counters %+v", c)
	}
	for _, q := range corpus[:20] {
		wantFresh(t, s, q, "on breaker-pinned fresh storage")
	}
}
