package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/lang/interp"
	"cpr/internal/patch"
	"cpr/internal/smt"
	"cpr/internal/synth"
)

// TestRepairPropertyRandomGuards: end-to-end pipeline property over
// generated subjects. Each subject guards an out-of-bounds write with a
// missing threshold check; the developer patch s ≥ K is always in the
// synthesis space. The repair must (a) keep at least one protective patch
// in the pool, and (b) never keep a parameter vector that crashes on the
// failing input itself.
func TestRepairPropertyRandomGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 6; iter++ {
		size := 4 + rng.Intn(6) // array size 4..9
		off := rng.Intn(3)      // index offset 0..2
		k := int64(size - off)  // crash iff s ≥ k
		src := fmt.Sprintf(`
void main(int s, int n) {
    int buf[%d];
    assume(n >= 0);
    assume(n <= 5);
    if (s >= 0) {
        if (__HOLE__) {
            return;
        }
        __BUG__;
        buf[s + %d] = n;
    }
}`, size, off)
		prog := lang.MustParse(src)
		job := Job{
			Program: prog,
			Spec: expr.And(
				expr.Ge(expr.Add(expr.IntVar("s"), expr.Int(int64(off))), expr.Int(0)),
				expr.Lt(expr.Add(expr.IntVar("s"), expr.Int(int64(off))), expr.Int(int64(size))),
			),
			FailingInputs: []map[string]int64{{"s": k + 1 + int64(rng.Intn(4)), "n": 1}},
			Components: synth.Components{
				Vars:       map[string]lang.Type{"s": lang.TypeInt, "n": lang.TypeInt},
				Params:     []string{"a"},
				ParamRange: interval.New(-12, 12),
				Cmp:        []expr.Op{expr.OpGe, expr.OpGt},
				Bool:       []expr.Op{},
				Arith:      []expr.Op{},
			},
			InputBounds: map[string]interval.Interval{
				"s": interval.New(-30, 30),
				"n": interval.New(0, 5),
			},
			Budget: Budget{MaxIterations: 12, ValidationIterations: 6},
		}
		res, err := Repair(job, Options{})
		if err != nil {
			t.Fatalf("iter %d: Repair: %v", iter, err)
		}
		if res.Pool.Size() == 0 {
			t.Fatalf("iter %d (size=%d off=%d): pool emptied", iter, size, off)
		}
		// (b) every surviving parameter vector must repair the failing
		// input (validation guarantee).
		failing := job.FailingInputs[0]
		for _, p := range res.Pool.Patches {
			checkAllParams(t, job, p, failing, iter)
		}
		// (a) some surviving patch covers the developer guard s ≥ k.
		protective := false
		for _, p := range res.Pool.Patches {
			if p.Expr == expr.Simplify(expr.Ge(expr.IntVar("s"), expr.IntVar("a")), nil) {
				if p.Constraint.Contains([]int64{k}) {
					protective = true
				}
			}
		}
		if !protective {
			for _, line := range FormatTopPatches(res, 10) {
				t.Log(line)
			}
			t.Fatalf("iter %d (size=%d off=%d): developer guard s >= %d lost", iter, size, off, k)
		}
	}
}

func checkAllParams(t *testing.T, job Job, p *patch.Patch, failing map[string]int64, iter int) {
	t.Helper()
	count := 0
	p.Constraint.Points(func(pt []int64) bool {
		count++
		if count > 64 {
			return false // sample at most 64 vectors
		}
		params := expr.Model{}
		for i, name := range p.Params {
			params[name] = pt[i]
		}
		out := interp.Run(job.Program, failing, interp.Options{Hole: p.Expr, HoleParams: params})
		if out.Crashed() {
			t.Errorf("iter %d: surviving params %v of %s crash on the failing input", iter, params, p)
			return false
		}
		return true
	})
	if len(p.Params) == 0 {
		out := interp.Run(job.Program, failing, interp.Options{Hole: p.Expr})
		if out.Crashed() {
			t.Errorf("iter %d: surviving concrete patch %s crashes on the failing input", iter, p)
		}
	}
}

// TestQueuePolicyAblation: FIFO exploration still reduces the pool, and
// both policies keep the developer patch.
func TestQueuePolicyAblation(t *testing.T) {
	job := divZeroJob()
	ranked, err := Repair(job, Options{Queue: QueueRanked})
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := Repair(job, Options{Queue: QueueFIFO})
	if err != nil {
		t.Fatal(err)
	}
	if ranked.Stats.PFinal >= ranked.Stats.PInit || fifo.Stats.PFinal >= fifo.Stats.PInit {
		t.Fatalf("no reduction: ranked %+v fifo %+v", ranked.Stats, fifo.Stats)
	}
	t.Logf("ranked: %d→%d hitBug=%d/%d; fifo: %d→%d hitBug=%d/%d",
		ranked.Stats.PInit, ranked.Stats.PFinal, ranked.Stats.BugLocHits, ranked.Stats.InputsGenerated,
		fifo.Stats.PInit, fifo.Stats.PFinal, fifo.Stats.BugLocHits, fifo.Stats.InputsGenerated)
}

// TestPassingInputsWidenExploration: §8 — passing tests seed additional
// partitions, increasing coverage without breaking the repair.
func TestPassingInputsWidenExploration(t *testing.T) {
	job := divZeroJob()
	base, err := Repair(job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	job.PassingInputs = []map[string]int64{{"x": 50, "y": 50}, {"x": -9, "y": 3}}
	withPassing, err := Repair(job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withPassing.Stats.PathsExplored < base.Stats.PathsExplored {
		t.Errorf("passing seeds reduced exploration: %d vs %d",
			withPassing.Stats.PathsExplored, base.Stats.PathsExplored)
	}
	if withPassing.Stats.PFinal > base.Stats.PFinal {
		t.Errorf("passing seeds enlarged the pool: %d vs %d",
			withPassing.Stats.PFinal, base.Stats.PFinal)
	}
	solver := smt.NewSolver(smt.Options{})
	if _, found := CorrectPatchRank(solver, withPassing.Ranked, devPatchDivZero(), job.InputBounds); !found {
		t.Error("correct patch lost with passing seeds")
	}
}
