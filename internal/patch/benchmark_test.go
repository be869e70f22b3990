package patch

import (
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/smt"
)

// BenchmarkRefine measures one Algorithm 3 refinement from a cold solver:
// patch x ≥ a with a ∈ [-60, 60] on the path x > -40 that takes the
// guard's false side, against σ = x ≠ 0 ∧ y ≠ 0. Every a ≥ -38 admits a
// violating input (x < a, y = 0), so Refine draws 99 counterexamples, one
// ωfail model each, and leaves a ∈ [-60, -39]. Successive ωfail queries
// differ only in the region conjunct — the repair loop's hottest query
// stream.
func BenchmarkRefine(b *testing.B) {
	p := New(1, expr.Ge(x, a), map[string]interval.Interval{"a": interval.New(-60, 60)})
	phi := expr.And(expr.Gt(x, expr.Int(-40)), expr.Eq(out, expr.False()))
	psi := p.Formula(out, map[string]*expr.Term{"x": x, "y": y})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &Refiner{Solver: smt.NewSolver(smt.Options{}), InputBounds: figBounds()}
		ref, err := r.Refine(phi, psi, figSpec(), p, p.Constraint)
		if err != nil {
			b.Fatal(err)
		}
		if ref.Count() != 22 || !ref.Contains([]int64{-39}) || ref.Contains([]int64{-38}) {
			b.Fatalf("refined region %v, want a in [-60, -39]", ref)
		}
		if q := r.Solver.Stats().Queries; q != 102 {
			b.Fatalf("%d solver queries, want 2 feasibility checks + 99 counterexamples + the final unsat", q)
		}
	}
}
