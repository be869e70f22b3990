package smt

import (
	"fmt"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/smt/lia"
)

// tableMarker is a term no query mentions: planted in a solver's
// simplification memo and constraint table, it shows whether the next
// query ran on the same tables or on fresh ones.
var tableMarker = expr.BoolVar("tables!marker")

func plantMarker(s *Solver) {
	s.memo[tableMarker] = tableMarker
	s.atomCons[suppLit{atom: tableMarker, positive: true}] = lia.Constraint{}
}

func markerPlanted(s *Solver) bool {
	_, inMemo := s.memo[tableMarker]
	_, inCons := s.atomCons[suppLit{atom: tableMarker, positive: true}]
	return inMemo || inCons
}

// fillerQuery is a satisfiable conjunction of n bounds on variables no
// other query shares: each of its atoms adds fresh entries to the
// simplification memo and, through the theory loop's support set, to the
// constraint table.
func fillerQuery(k, n int) *expr.Term {
	cs := make([]*expr.Term, n)
	for j := range cs {
		cs[j] = expr.Le(expr.IntVar(fmt.Sprintf("fill!%d!%d", k, j)), expr.Int(int64(j)))
	}
	return expr.And(cs...)
}

// TestSolverTablesSurviveCaps: a long-lived solver carries its
// simplification memo and constraint table from query to query, replaces
// each with a fresh map once it passes its cap, and answers the golden
// corpus exactly as recorded while unrelated queries push both tables past
// their caps in between.
func TestSolverTablesSurviveCaps(t *testing.T) {
	corpus := goldenCorpus()
	want := readGolden(t)
	s := NewSolver(Options{MaxTheoryRounds: 400})

	if st, err := s.Decide(fillerQuery(-1, 4), nil); err != nil || st != Sat {
		t.Fatalf("filler query: %v, %v", st, err)
	}
	plantMarker(s)
	goldenAnswer(t, s, corpus[0])
	if !markerPlanted(s) {
		t.Fatal("the tables did not carry over to the next query")
	}

	const fill = 1000
	memoDrops, consDrops := 0, 0
	lastMemo, lastCons := len(s.memo), len(s.atomCons)
	note := func() {
		if len(s.memo) < lastMemo {
			memoDrops++
		}
		if len(s.atomCons) < lastCons {
			consDrops++
		}
		lastMemo, lastCons = len(s.memo), len(s.atomCons)
		if lastMemo > maxMemoEntries+4*fill || lastCons > maxAtomCons+fill {
			t.Fatalf("tables grew to %d memo entries and %d constraints past their caps", lastMemo, lastCons)
		}
	}
	for i, q := range corpus {
		if st, err := s.Decide(fillerQuery(i, fill), nil); err != nil || st != Sat {
			t.Fatalf("filler query %d: %v, %v", i, st, err)
		}
		note()
		if got := goldenAnswer(t, s, q); got != want[i] {
			t.Fatalf("%s after %d memo and %d constraint-table replacements:\n got %+v\nwant %+v",
				q.name, memoDrops, consDrops, got, want[i])
		}
		note()
	}
	if memoDrops == 0 || consDrops == 0 {
		t.Fatalf("memo replaced %d times, constraint table %d times; the filler never passed both caps", memoDrops, consDrops)
	}
}

// TestBoolBoundsRespected: explicit bounds on Boolean variables constrain
// the skeleton. The first query is the gzip/f17cbd13a1 shape whose bound
// the solver once ignored: it answered sat with tostdout = 0, the guard
// rejected the model, and the query degraded to unknown.
func TestBoolBoundsRespected(t *testing.T) {
	members, tostdout, out := expr.IntVar("members"), expr.BoolVar("tostdout"), expr.BoolVar("patch!out!0")
	f := expr.And(
		expr.Ge(members, expr.Int(0)),
		expr.Le(members, expr.Int(4)),
		out,
		expr.Eq(out, expr.Not(tostdout)),
	)
	for _, tc := range []struct {
		bound interval.Interval
		want  Status
	}{
		{interval.Point(1), Unsat},
		{interval.New(2, 5), Unsat}, // excludes both truth values
		{interval.Point(0), Sat},
		{interval.New(0, 1), Sat},
	} {
		s := NewSolver(Options{})
		res, err := s.Check(f, map[string]interval.Interval{"tostdout": tc.bound})
		if err != nil || res.Status != tc.want {
			t.Fatalf("tostdout in %v: %v, %v; want %v", tc.bound, res.Status, err, tc.want)
		}
		if res.Status == Sat && res.Model["tostdout"] != 0 {
			t.Fatalf("tostdout in %v: model %v", tc.bound, res.Model)
		}
		if st := s.Stats(); st.ValidationFailures != 0 || st.Unknowns != 0 {
			t.Fatalf("tostdout in %v: %d validation failures, %d unknowns", tc.bound, st.ValidationFailures, st.Unknowns)
		}
	}
}
