package sat

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomCNF returns a random 3-CNF-ish problem large enough to make the
// search learn, restart, and reduce its clause database.
func randomCNF(r *rand.Rand) (int, [][]Lit) {
	nVars := 10 + r.Intn(60)
	cnf := make([][]Lit, int(float64(nVars)*(3.8+r.Float64())))
	for i := range cnf {
		cl := make([]Lit, 1+r.Intn(3))
		for j := range cl {
			cl[j] = MkLit(r.Intn(nVars), r.Intn(2) == 0)
		}
		cnf[i] = cl
	}
	return nVars, cnf
}

type solveTrace struct {
	St    Status
	Model []bool
	Stats Stats
}

// solveInto loads the problem into s and solves it twice, adding a
// blocking clause for the first model in between.
func solveInto(s *Solver, nVars int, cnf [][]Lit) []solveTrace {
	for v := 0; v < nVars; v++ {
		s.NewVar()
	}
	for _, cl := range cnf {
		s.AddClause(cl...)
	}
	var out []solveTrace
	for round := 0; round < 2; round++ {
		st := s.Solve()
		out = append(out, solveTrace{st, append([]bool(nil), s.Model()...), s.Statist})
		if st != Sat {
			break
		}
		block := make([]Lit, 0, nVars)
		for v, val := range s.Model() {
			block = append(block, MkLit(v, val))
		}
		s.AddClause(block...)
	}
	return out
}

// TestResetMatchesFresh: a solver that is Reset between unrelated problems
// answers each one exactly as a fresh solver does — verdicts, models, and
// work counters — whatever the previous problem left in its storage.
func TestResetMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	reused := New()
	for iter := 0; iter < 300; iter++ {
		nVars, cnf := randomCNF(r)
		if iter%7 == 3 {
			reused.MaxConflicts = 5 // leave a budget-aborted search behind
		}
		reused.Reset()
		got := solveInto(reused, nVars, cnf)
		want := solveInto(New(), nVars, cnf)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: reused solver %+v, fresh solver %+v", iter, got, want)
		}
		if iter%7 == 3 {
			reused.MaxConflicts = 5
			reused.Solve()
		}
	}
}

// TestResetDropsOversizedStorage: past the retention caps Reset frees the
// storage instead of keeping it.
func TestResetDropsOversizedStorage(t *testing.T) {
	s := New()
	for v := 0; v <= maxRetainedVars; v++ {
		s.NewVar()
	}
	for i := 0; i < 20*claChunk; i++ {
		s.AddClause(MkLit(i%maxRetainedVars, false), MkLit((i+1)%maxRetainedVars, true))
	}
	s.Reset()
	if cap(s.assigns) != 0 || len(s.claArena.chunks) > maxRetainedClaChunks || len(s.litArena.chunks) > maxRetainedLitChunks {
		t.Fatalf("Reset kept %d vars, %d clause chunks, %d literal chunks",
			cap(s.assigns), len(s.claArena.chunks), len(s.litArena.chunks))
	}
	if s.NumVars() != 0 || s.NumClauses() != 0 || s.Solve() != Sat {
		t.Fatal("Reset solver is not empty")
	}
}
