package core

import (
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/smt"
	"cpr/internal/synth"
)

// TestRepairIntHole: expression repair (the hole is an integer RHS, as in
// the ManyBugs 7d6e298 and SV-COMP addition subjects).
func TestRepairIntHole(t *testing.T) {
	prog := lang.MustParse(`
int main(int x) {
    assume(x >= 0);
    assume(x <= 20);
    int y = __HOLE__;
    __BUG__;
    assert(y == x + 1);
    return y;
}`)
	job := Job{
		Program:       prog,
		Spec:          expr.Eq(expr.IntVar("y"), expr.Add(expr.IntVar("x"), expr.Int(1))),
		FailingInputs: []map[string]int64{{"x": 3}},
		Components: synth.Components{
			Vars:       map[string]lang.Type{"x": lang.TypeInt},
			Params:     []string{"a"},
			ParamRange: interval.New(-10, 10),
			Arith:      []expr.Op{expr.OpAdd, expr.OpSub},
		},
		InputBounds: map[string]interval.Interval{"x": interval.New(0, 20)},
		Budget:      Budget{MaxIterations: 15, ValidationIterations: 6},
	}
	res, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if res.Stats.PFinal >= res.Stats.PInit {
		t.Fatalf("no reduction: %+v", res.Stats)
	}
	dev := expr.Add(expr.IntVar("x"), expr.Int(1))
	solver := smt.NewSolver(smt.Options{})
	rank, found := CorrectPatchRank(solver, res.Ranked, dev, job.InputBounds)
	if !found {
		for _, line := range FormatTopPatches(res, 8) {
			t.Log(line)
		}
		t.Fatal("correct expression x + 1 not covered")
	}
	if rank > 5 {
		t.Errorf("rank %d, want top-5 (spec pins the expression exactly)", rank)
	}
	// The surviving x + a patch must have collapsed to a = 1.
	xa := expr.Simplify(expr.Add(expr.IntVar("x"), expr.IntVar("a")), nil)
	for _, p := range res.Pool.Patches {
		if p.Expr == xa {
			if p.CountConcrete() != 1 || !p.Constraint.Contains([]int64{1}) {
				t.Errorf("x + a should collapse to a=1, got %v", p.Constraint)
			}
		}
	}
}

// TestRepairConditionInLoop: condition repair with the hole evaluated many
// times per run (multi-hit ψρ).
func TestRepairConditionInLoop(t *testing.T) {
	prog := lang.MustParse(`
void main(int n) {
    assume(n >= 0);
    assume(n <= 6);
    int i = 0;
    while (__HOLE__) {
        i = i + 1;
        if (i > 10) { break; }
    }
    __BUG__;
    assert(i == n);
}`)
	job := Job{
		Program:       prog,
		Spec:          expr.Eq(expr.IntVar("i"), expr.IntVar("n")),
		FailingInputs: []map[string]int64{{"n": 3}},
		Components: synth.Components{
			Vars:       map[string]lang.Type{"i": lang.TypeInt, "n": lang.TypeInt},
			Params:     []string{"a"},
			ParamRange: interval.New(-10, 10),
			Cmp:        []expr.Op{expr.OpLt, expr.OpLe},
			Bool:       []expr.Op{},
			Arith:      []expr.Op{},
		},
		InputBounds: map[string]interval.Interval{"n": interval.New(0, 6)},
		Budget:      Budget{MaxIterations: 15, ValidationIterations: 8},
	}
	res, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	dev := expr.Lt(expr.IntVar("i"), expr.IntVar("n"))
	solver := smt.NewSolver(smt.Options{})
	rank, found := CorrectPatchRank(solver, res.Ranked, dev, job.InputBounds)
	if !found {
		for _, line := range FormatTopPatches(res, 8) {
			t.Log(line)
		}
		t.Fatal("correct condition i < n not covered")
	}
	t.Logf("i < n ranked %d; pool %d→%d", rank, res.Stats.PoolInit, res.Stats.PoolFinal)
}
