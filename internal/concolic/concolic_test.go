package concolic

import (
	"math/rand"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/lang/interp"
	"cpr/internal/smt"
)

const divSubject = `
void main(int x, int y) {
    if (__HOLE__) {
        return;
    }
    __BUG__;
    int c = 100 / y;
    int d = c + x;
}
`

func TestBasicPathConstraint(t *testing.T) {
	prog := lang.MustParse(`
void main(int x, int y) {
    if (x > 3) {
        if (y <= 5) {
            int z = x + y;
        }
    }
}`)
	exec := Execute(prog, map[string]int64{"x": 7, "y": 0}, Options{Patch: expr.False()})
	if exec.Err != nil {
		t.Fatalf("err: %v", exec.Err)
	}
	if len(exec.Branches) != 2 {
		t.Fatalf("branches: %d (%v)", len(exec.Branches), exec.Branches)
	}
	pc := exec.PathConstraint()
	want := expr.And(
		expr.Gt(expr.IntVar("x"), expr.Int(3)),
		expr.Le(expr.IntVar("y"), expr.Int(5)),
	)
	// Evaluate both on a few points to check equivalence shape.
	for _, m := range []expr.Model{{"x": 7, "y": 0}, {"x": 2, "y": 0}, {"x": 9, "y": 9}} {
		a, _ := expr.EvalBool(pc, m)
		b, _ := expr.EvalBool(want, m)
		if a != b {
			t.Fatalf("path constraint %v disagrees with %v at %v", pc, want, m)
		}
	}
}

func TestHoleProducesPatchOutSymbol(t *testing.T) {
	prog := lang.MustParse(divSubject)
	patch := expr.Eq(expr.IntVar("y"), expr.Int(0)) // guard: y == 0
	exec := Execute(prog, map[string]int64{"x": 7, "y": 0}, Options{Patch: patch})
	if exec.Err != nil {
		t.Fatalf("err: %v", exec.Err)
	}
	if !exec.HitPatch() || exec.HitBug() {
		t.Fatalf("hits: patch=%v bug=%v", exec.HitPatch(), exec.HitBug())
	}
	if len(exec.HoleHits) != 1 {
		t.Fatalf("hole hits: %d", len(exec.HoleHits))
	}
	h := exec.HoleHits[0]
	if h.Out.Name != PatchOutPrefix+"0" {
		t.Fatalf("out symbol: %v", h.Out)
	}
	if h.Snapshot["x"] != expr.IntVar("x") || h.Snapshot["y"] != expr.IntVar("y") {
		t.Fatalf("snapshot: %v", h.Snapshot)
	}
	// The branch on the hole must mention the patch-out symbol.
	found := false
	for _, b := range exec.Branches {
		if b.OnPatch {
			found = true
		}
	}
	if !found {
		t.Fatal("no branch mentions the patch output")
	}
}

func TestCrashRecordsImplicitBranch(t *testing.T) {
	prog := lang.MustParse(divSubject)
	exec := Execute(prog, map[string]int64{"x": 7, "y": 0}, Options{Patch: expr.False()})
	if !exec.Crashed() || exec.Err.Kind != interp.ErrDivZero {
		t.Fatalf("expected div-by-zero crash, got %+v", exec.Err)
	}
	if !exec.HitBug() {
		t.Fatal("bug location not hit")
	}
	// The last branch must be the zero-divisor condition y == 0.
	last := exec.Branches[len(exec.Branches)-1]
	wantCond := expr.Eq(expr.IntVar("y"), expr.Int(0))
	if expr.Simplify(last.Cond, nil) != expr.Simplify(wantCond, nil) {
		t.Fatalf("last branch %v, want %v", last.Cond, wantCond)
	}
}

func TestShortCircuitBranches(t *testing.T) {
	prog := lang.MustParse(`
void main(int x, int y) {
    if (x > 0 && y > 0) {
        int z = 1;
    }
}`)
	exec := Execute(prog, map[string]int64{"x": 1, "y": -1}, Options{})
	// Two branches: x > 0 (taken), y > 0 (not taken) and the if itself is
	// concrete after short-circuit evaluation.
	if len(exec.Branches) != 2 {
		t.Fatalf("branches: %v", exec.Branches)
	}
	// x <= 0 path: only one branch recorded (y never evaluated).
	exec = Execute(prog, map[string]int64{"x": -1, "y": 5}, Options{})
	if len(exec.Branches) != 1 {
		t.Fatalf("short-circuit failed: %v", exec.Branches)
	}
}

func TestMulConcretization(t *testing.T) {
	prog := lang.MustParse(`
void main(int x, int y) {
    int p = x * y;
    if (p > 10) {
        int z = 1;
    }
}`)
	exec := Execute(prog, map[string]int64{"x": 3, "y": 4}, Options{})
	if exec.Err != nil {
		t.Fatalf("err: %v", exec.Err)
	}
	// One pin (y = 4) and one branch (3... x*4 > 10 as taken).
	var pins, branches int
	for _, b := range exec.Branches {
		if b.Pin {
			pins++
		} else {
			branches++
		}
	}
	if pins != 1 || branches != 1 {
		t.Fatalf("pins=%d branches=%d (%v)", pins, branches, exec.Branches)
	}
	// Path constraint must hold on the concrete input.
	ok, err := expr.EvalBool(exec.PathConstraint(), expr.Model{"x": 3, "y": 4})
	if err != nil || !ok {
		t.Fatalf("path constraint fails on its own input: %v %v", ok, err)
	}
}

func TestArrayIndexBranches(t *testing.T) {
	prog := lang.MustParse(`
void main(int i) {
    int a[3] = {1, 2, 3};
    int v = a[i];
}`)
	exec := Execute(prog, map[string]int64{"i": 1}, Options{})
	if exec.Err != nil {
		t.Fatalf("err: %v", exec.Err)
	}
	// In-bounds branch + index pin.
	if len(exec.Branches) < 2 {
		t.Fatalf("branches: %v", exec.Branches)
	}
	exec = Execute(prog, map[string]int64{"i": 5}, Options{})
	if !exec.Crashed() || exec.Err.Kind != interp.ErrOutOfBounds {
		t.Fatalf("expected OOB, got %+v", exec.Err)
	}
	// Flipping the last branch should describe an in-bounds path.
	last := exec.Branches[len(exec.Branches)-1]
	ok, _ := expr.EvalBool(expr.Not(last.Cond), expr.Model{"i": 1})
	if !ok {
		t.Fatalf("negated OOB condition should admit i=1: %v", last.Cond)
	}
}

func TestAssumeAndAssertBranches(t *testing.T) {
	prog := lang.MustParse(`
void main(int x) {
    assume(x >= 0);
    assert(x < 100);
}`)
	exec := Execute(prog, map[string]int64{"x": 5}, Options{})
	if exec.Err != nil || len(exec.Branches) != 2 {
		t.Fatalf("got %+v %v", exec.Err, exec.Branches)
	}
	exec = Execute(prog, map[string]int64{"x": -1}, Options{})
	if exec.Err == nil || exec.Err.Kind != interp.ErrAssumeViolated {
		t.Fatalf("got %+v", exec.Err)
	}
	exec = Execute(prog, map[string]int64{"x": 200}, Options{})
	if !exec.Crashed() || exec.Err.Kind != interp.ErrAssertFail {
		t.Fatalf("got %+v", exec.Err)
	}
}

// TestReplayProperty: any model of the path constraint, executed
// concretely, follows the same branch sequence. This is the soundness
// property of concolic execution.
func TestReplayProperty(t *testing.T) {
	src := `
int f(int a, int b) {
    if (a > b) { return a - b; }
    return b - a;
}
void main(int x, int y) {
    int d = f(x, y);
    if (d > 3) {
        if (x % 2 == 0) {
            int z = d * 2;
        }
    } else {
        while (d > 0) {
            d = d - 1;
        }
    }
    assert(d >= 0);
}`
	prog := lang.MustParse(src)
	solver := smt.NewSolver(smt.Options{})
	bounds := map[string]interval.Interval{
		"x": interval.New(-50, 50),
		"y": interval.New(-50, 50),
	}
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 40; iter++ {
		in := map[string]int64{
			"x": int64(r.Intn(101) - 50),
			"y": int64(r.Intn(101) - 50),
		}
		exec := Execute(prog, in, Options{})
		if exec.Err != nil {
			t.Fatalf("unexpected error: %v", exec.Err)
		}
		// Solve the path constraint for a fresh model.
		res, err := solver.Check(exec.PathConstraint(), bounds)
		if err != nil {
			t.Fatalf("solver: %v", err)
		}
		if res.Status != smt.Sat {
			t.Fatalf("own path constraint unsat: %v", exec.PathConstraint())
		}
		in2 := map[string]int64{"x": res.Model["x"], "y": res.Model["y"]}
		exec2 := Execute(prog, in2, Options{})
		if len(exec2.Branches) != len(exec.Branches) {
			t.Fatalf("replay diverged: %d vs %d branches for %v vs %v",
				len(exec.Branches), len(exec2.Branches), in, in2)
		}
		for i := range exec.Branches {
			if exec.Branches[i].Cond != exec2.Branches[i].Cond {
				t.Fatalf("branch %d differs: %v vs %v", i, exec.Branches[i].Cond, exec2.Branches[i].Cond)
			}
		}
	}
}

func TestFlips(t *testing.T) {
	prog := lang.MustParse(divSubject)
	patch := expr.Eq(expr.IntVar("y"), expr.Int(0))
	exec := Execute(prog, map[string]int64{"x": 7, "y": 0}, Options{Patch: patch})
	flips := Flips(exec, 0)
	if len(flips) == 0 {
		t.Fatal("no flips")
	}
	// The first flip negates the patch branch: ¬(patch!out!0).
	f := flips[0]
	if !f.OnPatch || len(f.HoleHits) != 1 {
		t.Fatalf("first flip: %+v", f)
	}
	if f.Score() <= 0 {
		t.Fatalf("score: %d", f.Score())
	}
	// Flip constraints must include prefix and negated branch.
	c := f.Constraint()
	if c.IsConst() {
		t.Fatalf("flip constraint degenerate: %v", c)
	}
	// Deeper flips keep earlier conditions in the prefix.
	for _, fl := range flips {
		if len(fl.Prefix) != fl.Depth {
			t.Fatalf("prefix length %d != depth %d", len(fl.Prefix), fl.Depth)
		}
	}
}

func TestFlipsMarkPins(t *testing.T) {
	prog := lang.MustParse(`
void main(int x, int y) {
    int p = x * y;
    if (p > 10) { int z = 1; }
}`)
	exec := Execute(prog, map[string]int64{"x": 3, "y": 4}, Options{})
	var pinFlips, structural int
	for _, f := range Flips(exec, 0) {
		if exec.Branches[f.Depth].Pin != f.PinFlip {
			t.Fatalf("PinFlip flag wrong at depth %d", f.Depth)
		}
		if f.PinFlip {
			pinFlips++
			// Pin flips rank below structural flips of the same parent.
			if f.Score() >= (Flip{Depth: f.Depth}).Score() {
				t.Fatalf("pin flip not penalized: %d", f.Score())
			}
		} else {
			structural++
		}
	}
	if pinFlips == 0 || structural == 0 {
		t.Fatalf("expected both pin and structural flips, got %d/%d", pinFlips, structural)
	}
}

func TestPathKeyStable(t *testing.T) {
	a := []*expr.Term{expr.Gt(expr.IntVar("x"), expr.Int(0))}
	b := []*expr.Term{expr.Gt(expr.IntVar("x"), expr.Int(0))}
	if PathKey(a) != PathKey(b) {
		t.Fatal("equal prefixes hash differently")
	}
	c := []*expr.Term{expr.Le(expr.IntVar("x"), expr.Int(0))}
	if PathKey(a) == PathKey(c) {
		t.Fatal("different prefixes hash equal")
	}
}

func TestMaxBranchesBudget(t *testing.T) {
	prog := lang.MustParse(`
void main(int n) {
    int i = 0;
    while (i < n) {
        i = i + 1;
    }
}`)
	exec := Execute(prog, map[string]int64{"n": 100}, Options{MaxBranches: 10})
	if exec.Err != nil {
		t.Fatalf("err: %v", exec.Err)
	}
	if len(exec.Branches) > 10 {
		t.Fatalf("branch budget exceeded: %d", len(exec.Branches))
	}
}

func TestLoopUnrollsInPathConstraint(t *testing.T) {
	prog := lang.MustParse(`
void main(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) {
        s = s + i;
    }
    assert(s >= 0);
}`)
	exec := Execute(prog, map[string]int64{"n": 3}, Options{})
	if exec.Err != nil {
		t.Fatalf("err: %v", exec.Err)
	}
	// 3 taken iterations + 1 exit; the assert condition is concrete
	// (s does not depend on the input) and is not recorded.
	if len(exec.Branches) != 4 {
		t.Fatalf("branches: %d (%v)", len(exec.Branches), exec.Branches)
	}
}
