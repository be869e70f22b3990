package concolic

import (
	"testing"

	"cpr/internal/expr"
	"cpr/internal/lang"
)

// TestMultipleHoleHits: a hole inside a loop produces one fresh output
// symbol per evaluation, each with its own snapshot.
func TestMultipleHoleHits(t *testing.T) {
	prog := lang.MustParse(`
void main(int n) {
    assume(n >= 0);
    assume(n <= 5);
    int i = 0;
    while (__HOLE__) {
        i = i + 1;
        if (i > 8) { break; }
    }
    __BUG__;
    assert(i <= 3);
}`)
	// Patch: i < 3 — the loop runs exactly three times.
	patch := expr.Lt(expr.IntVar("i"), expr.Int(3))
	exec := Execute(prog, map[string]int64{"n": 2}, Options{Patch: patch})
	if exec.Err != nil {
		t.Fatalf("err: %v", exec.Err)
	}
	// 4 hole evaluations: i = 0,1,2 (true) and i = 3 (false).
	if len(exec.HoleHits) != 4 {
		t.Fatalf("hole hits: %d", len(exec.HoleHits))
	}
	seen := map[string]bool{}
	for k, h := range exec.HoleHits {
		if seen[h.Out.Name] {
			t.Fatalf("duplicate out symbol %s", h.Out.Name)
		}
		seen[h.Out.Name] = true
		// The snapshot captures i's symbolic value at the hit; since i is
		// a concrete counter here, it is the constant k.
		if h.Snapshot["i"] != expr.Int(int64(k)) {
			t.Fatalf("hit %d snapshot i = %v", k, h.Snapshot["i"])
		}
		if h.Concrete["i"] != int64(k) {
			t.Fatalf("hit %d concrete i = %d", k, h.Concrete["i"])
		}
	}
	// Each hole evaluation contributed one branch on its own out symbol.
	patchBranches := 0
	for _, b := range exec.Branches {
		if b.OnPatch {
			patchBranches++
		}
	}
	if patchBranches != 4 {
		t.Fatalf("patch branches: %d", patchBranches)
	}
	if !exec.HitBug() {
		t.Fatal("bug marker not reached")
	}
}

// TestHoleSnapshotTracksSymbolicState: the snapshot at the hole must
// capture derived symbolic values, not just raw inputs.
func TestHoleSnapshotTracksSymbolicState(t *testing.T) {
	prog := lang.MustParse(`
void main(int x) {
    int doubled = x * 2;
    int shifted = doubled + 5;
    if (__HOLE__) {
        return;
    }
    __BUG__;
}`)
	exec := Execute(prog, map[string]int64{"x": 3}, Options{Patch: expr.True()})
	if len(exec.HoleHits) != 1 {
		t.Fatalf("hole hits: %d", len(exec.HoleHits))
	}
	snap := exec.HoleHits[0].Snapshot
	x := expr.IntVar("x")
	if got := expr.Simplify(snap["doubled"], nil); got != expr.Simplify(expr.Mul(expr.Int(2), x), nil) {
		t.Fatalf("doubled snapshot: %v", got)
	}
	if got := expr.Simplify(snap["shifted"], nil); got != expr.Simplify(expr.Add(expr.Mul(expr.Int(2), x), expr.Int(5)), nil) {
		t.Fatalf("shifted snapshot: %v", got)
	}
	if exec.HoleHits[0].Concrete["doubled"] != 6 || exec.HoleHits[0].Concrete["shifted"] != 11 {
		t.Fatalf("concrete snapshot: %v", exec.HoleHits[0].Concrete)
	}
}

// TestSymbolicArrayCells: array stores keep symbolic values; loads yield
// the stored term, and conditions over loaded cells are recorded.
func TestSymbolicArrayCells(t *testing.T) {
	prog := lang.MustParse(`
void main(int x0, int x1) {
    int a[2];
    a[0] = x0;
    a[1] = x1;
    if (a[0] > a[1]) {
        int tmp = a[0];
        a[0] = a[1];
        a[1] = tmp;
    }
    assert(a[0] <= a[1]);
}`)
	exec := Execute(prog, map[string]int64{"x0": 5, "x1": 2}, Options{})
	if exec.Err != nil {
		t.Fatalf("err: %v", exec.Err)
	}
	// The comparison a[0] > a[1] must be symbolic over x0, x1.
	var found bool
	for _, b := range exec.Branches {
		if expr.ContainsVar(b.Cond, "x0") && expr.ContainsVar(b.Cond, "x1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no symbolic branch over array cells: %v", exec.Branches)
	}
	// The path constraint must hold on the concrete input.
	ok, err := expr.EvalBool(exec.PathConstraint(), expr.Model{"x0": 5, "x1": 2})
	if err != nil || !ok {
		t.Fatalf("path constraint fails: %v %v", ok, err)
	}
}

// TestIntHoleInExpression: integer holes used inside larger expressions
// propagate their output symbol.
func TestIntHoleInExpression(t *testing.T) {
	prog := lang.MustParse(`
int main(int x) {
    int y = __HOLE__ + 1;
    if (y > 10) {
        return 1;
    }
    return 0;
}`)
	patch := expr.Mul(expr.IntVar("x"), expr.Int(3))
	exec := Execute(prog, map[string]int64{"x": 4}, Options{Patch: patch})
	if exec.Err != nil {
		t.Fatalf("err: %v", exec.Err)
	}
	if exec.Ret == nil || exec.Ret.I != 1 { // 4*3+1 = 13 > 10
		t.Fatalf("ret: %+v", exec.Ret)
	}
	// The branch must mention the int patch-output symbol.
	if len(exec.Branches) != 1 || !exec.Branches[0].OnPatch {
		t.Fatalf("branches: %v", exec.Branches)
	}
}
