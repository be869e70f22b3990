package core

import (
	"testing"
	"time"

	"cpr/internal/cancel"
)

func TestBudgetWithDefaults(t *testing.T) {
	b := Budget{}.withDefaults()
	if b.MaxIterations != 100 {
		t.Errorf("MaxIterations default = %d, want 100", b.MaxIterations)
	}
	if b.ValidationIterations != 8 {
		t.Errorf("ValidationIterations default = %d, want 8", b.ValidationIterations)
	}
	if b.MaxDuration != 0 || !b.Deadline.IsZero() {
		t.Errorf("wall-clock budget must stay unbounded by default: %+v", b)
	}
	c := Budget{
		MaxIterations:        3,
		ValidationIterations: 2,
		MaxDuration:          time.Second,
		Deadline:             time.Unix(1, 0),
	}.withDefaults()
	if c.MaxIterations != 3 || c.ValidationIterations != 2 {
		t.Errorf("explicit iteration budget overwritten: %+v", c)
	}
	if c.MaxDuration != time.Second || !c.Deadline.Equal(time.Unix(1, 0)) {
		t.Errorf("explicit wall-clock budget overwritten: %+v", c)
	}
}

// TestRepairMaxDurationTimesOut: with a tiny wall-clock budget the run must
// still return a valid, ranked best-so-far pool — with TimedOut set — and
// must wind down promptly rather than finishing the iteration budget.
func TestRepairMaxDurationTimesOut(t *testing.T) {
	job := divZeroJob()
	job.Budget.MaxIterations = 1 << 20 // would run ~forever without the clock
	job.Budget.MaxDuration = 50 * time.Millisecond
	start := time.Now()
	res, err := Repair(job, Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Stats.TimedOut {
		t.Fatalf("Stats.TimedOut not set: %+v", res.Stats)
	}
	// Generous slack for CI: the loop polls every few hundred steps, so the
	// overshoot past the deadline must stay far below the no-deadline runtime
	// (~10s for this subject at full iteration budget).
	if elapsed > 2*time.Second {
		t.Fatalf("run overran its 50ms budget by too much: %v", elapsed)
	}
	if res.Pool == nil || res.Pool.Size() == 0 {
		t.Fatalf("timed-out run lost its pool: %+v", res.Pool)
	}
	if len(res.Ranked) != len(res.Pool.Patches) {
		t.Fatalf("ranking inconsistent with pool: %d vs %d", len(res.Ranked), len(res.Pool.Patches))
	}
}

// TestRepairCancelledBeforeStart: a pre-cancelled token degrades the whole
// run to "return the initial pool": anytime semantics at the extreme.
func TestRepairCancelledBeforeStart(t *testing.T) {
	tok := cancel.New()
	tok.Cancel()
	res, err := Repair(divZeroJob(), Options{Cancel: tok})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Stats.TimedOut {
		t.Fatalf("Stats.TimedOut not set: %+v", res.Stats)
	}
	if res.Pool.Size() == 0 || res.Stats.PathsExplored != 0 {
		t.Fatalf("cancelled run should return the untouched pool: size=%d φE=%d",
			res.Pool.Size(), res.Stats.PathsExplored)
	}
	if len(res.Ranked) != len(res.Pool.Patches) {
		t.Fatalf("ranking inconsistent with pool")
	}
}

// TestRepairDeadlineMidExplore: expire the clock partway through so the
// main loop is entered and then interrupted; the pool must stay intact,
// ranked, and no larger than the validated pool (monotone reduction).
func TestRepairDeadlineMidExplore(t *testing.T) {
	job := divZeroJob()
	job.Budget.MaxIterations = 1 << 20
	// The deadline falls halfway through an uninterrupted run of the same
	// job, timed here, so it lands partway through on any machine and at
	// any engine speed; a fixed duration outlives the whole run once the
	// engine is fast enough.
	start := time.Now()
	full, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("uninterrupted Repair: %v", err)
	}
	job.Budget.Deadline = time.Now().Add(time.Since(start) / 2)
	res, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Stats.TimedOut {
		t.Fatalf("Stats.TimedOut not set: %+v", res.Stats)
	}
	if res.Stats.PathsExplored >= full.Stats.PathsExplored {
		t.Fatalf("interrupted run explored %d paths, the uninterrupted run %d", res.Stats.PathsExplored, full.Stats.PathsExplored)
	}
	if res.Pool.Size() == 0 {
		t.Fatal("mid-explore deadline lost the pool")
	}
	if res.Stats.PFinal > res.Stats.PInit {
		t.Fatalf("pool grew: init=%d final=%d", res.Stats.PInit, res.Stats.PFinal)
	}
	if len(res.Ranked) != len(res.Pool.Patches) {
		t.Fatalf("ranking inconsistent with pool")
	}
}
