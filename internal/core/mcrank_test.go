package core

import (
	"testing"

	"cpr/internal/expr"
)

// TestModelCountRankingDampsBroadGuards: with the §3.5.3 fine-tuning
// enabled, a guard firing on (almost) the whole partition accumulates
// less evidence than a narrow one, pushing near-deletion patches down.
func TestModelCountRankingDamps(t *testing.T) {
	job := divZeroJob()
	plain, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	tuned, err := Repair(job, Options{ModelCountRanking: true})
	if err != nil {
		t.Fatalf("Repair (mc): %v", err)
	}
	score := func(res *Result, tpl *expr.Term) (float64, bool) {
		c := expr.Simplify(tpl, nil)
		for _, p := range res.Pool.Patches {
			if p.Expr == c {
				return p.Score, true
			}
		}
		return 0, false
	}
	x, y := expr.IntVar("x"), expr.IntVar("y")
	a, b := expr.IntVar("a"), expr.IntVar("b")
	correct := expr.Or(expr.Eq(x, a), expr.Eq(y, b))
	sPlain, ok1 := score(plain, correct)
	sTuned, ok2 := score(tuned, correct)
	if !ok1 || !ok2 {
		t.Skip("correct template not present in both pools")
	}
	if sTuned <= 0 || sPlain <= 0 {
		t.Fatalf("scores not accumulated: plain=%v tuned=%v", sPlain, sTuned)
	}
	// The narrow correct guard (fires only at x==0 or y==0) should keep
	// most of its evidence under the damping.
	if sTuned < sPlain*0.5 {
		t.Errorf("correct patch over-damped: %v -> %v", sPlain, sTuned)
	}
	// The final reduction must be unaffected (ranking-only change).
	if plain.Stats.PFinal != tuned.Stats.PFinal {
		t.Errorf("model-count ranking changed reduction: %d vs %d",
			plain.Stats.PFinal, tuned.Stats.PFinal)
	}
}
