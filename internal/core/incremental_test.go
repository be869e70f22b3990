package core

import (
	"testing"

	"cpr/internal/faultinject"
)

// TestIncrementalRepairDifferential: every engine worker answers its whole
// query stream on one long-lived solver that resets and reuses its
// storage between queries. With the guard in paranoid mode, every unsat
// verdict is cross-checked by an independent solver with its own storage
// history and every sat model is replayed, so state leaking from one
// query into the next would surface as a validation failure. None may
// occur, and the repair result — pool, constraints, ranking, and every
// headline stat — must be identical to the unguarded run, at one worker
// and at many.
func TestIncrementalRepairDifferential(t *testing.T) {
	plain, err := Repair(divZeroJob(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	want := fingerprint(plain)

	for _, n := range []int{1, testWorkers()} {
		opts := Options{Workers: n}
		opts.SMT.Paranoid = true
		res, err := Repair(divZeroJob(), opts)
		if err != nil {
			t.Fatalf("Repair paranoid workers=%d: %v", n, err)
		}
		if got := fingerprint(res); got != want {
			t.Fatalf("paranoid workers=%d diverged:\n--- want ---\n%s--- got ---\n%s", n, want, got)
		}
		st := res.Stats
		if st.Validations == 0 || st.ValidationFailures != 0 || st.FallbackSolves != 0 {
			t.Errorf("workers=%d: reused-storage verdicts did not all validate: %+v", n, st)
		}
	}
}

// TestIncrementalRepairSurvivesSolverFaults: injected panics and timeouts
// mid-run hit solvers whose storage is reused across queries. A panic
// discards at most that storage (rebuilt on the next query), never the
// run, and every fault is counted.
func TestIncrementalRepairSurvivesSolverFaults(t *testing.T) {
	for _, kind := range []faultinject.Fault{faultinject.SolverPanic, faultinject.SolverTimeout} {
		faultinject.Activate(&faultinject.Plan{SolverEvery: 5, SolverKind: kind})
		res, err := Repair(divZeroJob(), Options{Workers: 1})
		faultinject.Deactivate()
		if err != nil {
			t.Fatalf("kind %v: Repair under faults: %v", kind, err)
		}
		if res.Pool == nil || len(res.Ranked) != len(res.Pool.Patches) {
			t.Fatalf("kind %v: faulted run returned an inconsistent pool", kind)
		}
		if res.Stats.SolverUnknowns+res.Stats.SolverPanics == 0 {
			t.Errorf("kind %v: degradation invisible: %+v", kind, res.Stats)
		}
		if kind == faultinject.SolverPanic && res.Stats.SolverPanics == 0 {
			t.Errorf("panic faults not counted: %+v", res.Stats)
		}
	}
}
