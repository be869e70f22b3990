// Memory-governance tests for the daemon: admission sheds under
// pressure, shard fleets narrow, and a GOMEMLIMIT-constrained process
// survives a memory storm — sheds new work with 503 + Retry-After,
// finishes everything it accepted, and shows the episode in /stats.
package serve

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"cpr/internal/core"
	"cpr/internal/faultinject"
	"cpr/internal/govern"
)

// stormWatermarks are unreachable by the test's real heap; only the
// faultinject allocation spike crosses them, so every rung transition in
// these tests is deterministic.
func stormWatermarks() govern.Config {
	return govern.Config{
		SoftBytes:     1 << 40,
		HighBytes:     1 << 41,
		CriticalBytes: 1 << 42,
		// Transient critical must not stop accepted jobs mid-test.
		CriticalStopPolls: 1 << 30,
	}
}

// spike forces the governor's next polls to classify at the given rung
// by inflating the sampled heap past the matching watermark.
func spike(t *testing.T, g *govern.Governor, bytes uint64, want govern.Rung) {
	t.Helper()
	faultinject.Deactivate()
	if bytes > 0 {
		faultinject.Activate(&faultinject.Plan{MemSpikeBytes: bytes, MemSpikeEvery: 1})
	}
	if got := g.Poll(); got != want {
		t.Fatalf("forced poll classified %s, want %s", got, want)
	}
}

// TestMemoryStormShedsAndSurvives is the chaos suite's headline: a daemon
// running under a hard Go memory limit accepts a batch of real repair
// jobs, gets hit by a storm that drives the governor critical, sheds
// every new submit with 503 + Retry-After while the accepted jobs keep
// running governed, and — once pressure clears — finishes all of them.
// Zero OOM by construction: the process runs the whole episode under
// debug.SetMemoryLimit.
func TestMemoryStormShedsAndSurvives(t *testing.T) {
	prev := debug.SetMemoryLimit(1 << 30)
	defer debug.SetMemoryLimit(prev)
	defer faultinject.Deactivate()

	g := govern.New(stormWatermarks())
	s := newTestServer(t, Config{Runners: 2, Govern: g, GovernTick: -1})
	s.Start()
	defer s.Drain(30 * time.Second)

	// Phase 1: healthy daemon admits real work.
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, mustSubmit(t, s, quickSpec("acme", fmt.Sprintf("storm-%d", i))).ID)
	}

	// Phase 2: the storm. The spike pushes the sampled heap far past the
	// critical watermark; every submit must shed with 503 + Retry-After.
	spike(t, g, 1<<43, govern.RungCritical)
	const stormSubmits = 8
	for i := 0; i < stormSubmits; i++ {
		_, aerr := s.Submit(quickSpec("acme", fmt.Sprintf("shed-%d", i)))
		if aerr == nil {
			t.Fatal("critical-rung submit was admitted")
		}
		if aerr.Status != 503 {
			t.Fatalf("shed status = %d, want 503", aerr.Status)
		}
		if aerr.RetryAfter <= 0 {
			t.Fatal("memory shed carries no Retry-After")
		}
	}

	// Phase 3: pressure clears; everything accepted still finishes.
	spike(t, g, 0, govern.RungNone)
	for _, id := range ids {
		v := waitTerminal(t, s, id, 60*time.Second)
		if v.State != StateDone || v.Result == nil {
			t.Fatalf("accepted job %s did not survive the storm: %+v", id, v)
		}
	}

	sv := s.Stats()
	if sv.Jobs.RejectedMemory != stormSubmits {
		t.Errorf("global RejectedMemory = %d, want %d", sv.Jobs.RejectedMemory, stormSubmits)
	}
	if sv.Tenants["acme"].RejectedMemory != stormSubmits {
		t.Errorf("tenant RejectedMemory = %d, want %d", sv.Tenants["acme"].RejectedMemory, stormSubmits)
	}
	if sv.Jobs.Done != 3 {
		t.Errorf("Done = %d, want all 3 accepted jobs", sv.Jobs.Done)
	}
	if sv.Mem == nil || sv.Mem.Polls == 0 {
		t.Fatal("/stats carries no governor counters")
	}
	if sv.Mem.CriticalPolls == 0 {
		t.Error("the critical episode left no CriticalPolls in /stats")
	}
	if sv.MemRung != govern.RungNone.String() {
		t.Errorf("mem_rung = %q after the storm, want %q", sv.MemRung, govern.RungNone)
	}
}

// TestMemShedPrefersDrainingRetries: at the high rung the daemon stops
// admitting only while it still owes retries; with no retry backlog the
// high rung admits normally, and critical always sheds.
func TestMemShedPrefersDrainingRetries(t *testing.T) {
	defer faultinject.Deactivate()
	g := govern.New(stormWatermarks())
	s := newTestServer(t, Config{Runners: -1, Govern: g, GovernTick: -1})

	// High rung, no backlog: admit.
	spike(t, g, 1<<41, govern.RungHigh)
	mustSubmit(t, s, quickSpec("t1", "high-no-backlog"))

	// High rung with a retry backlog: shed until the backlog drains.
	s.mu.Lock()
	s.tenantLocked("t2").retrying = 1
	s.mu.Unlock()
	if _, aerr := s.Submit(quickSpec("t1", "high-backlog")); aerr == nil || aerr.Status != 503 {
		t.Fatalf("high rung with retry backlog: got %+v, want 503", aerr)
	}
	s.mu.Lock()
	s.tenantLocked("t2").retrying = 0
	s.mu.Unlock()
	mustSubmit(t, s, quickSpec("t1", "high-backlog-drained"))

	// Critical: shed unconditionally.
	spike(t, g, 1<<43, govern.RungCritical)
	if _, aerr := s.Submit(quickSpec("t1", "critical")); aerr == nil || aerr.Status != 503 {
		t.Fatalf("critical rung: got %+v, want 503", aerr)
	}
	if got := s.Stats().Jobs.RejectedMemory; got != 2 {
		t.Errorf("RejectedMemory = %d, want 2", got)
	}
}

// TestMemPressureNarrowsShardFleets: the shard factory asks the budget
// for the full fleet when unpressured, half at the high rung, and none at
// critical (the attempt runs locally), counting each narrowing.
func TestMemPressureNarrowsShardFleets(t *testing.T) {
	defer faultinject.Deactivate()
	g := govern.New(stormWatermarks())
	var grants []int
	fake := &fakeDist{}
	s := newTestServer(t, Config{
		Runners: -1, Shards: 4, ShardBudget: 8, Govern: g, GovernTick: -1,
		MakeDistributor: func(n int) func(core.Job, core.Options) (core.Distributor, error) {
			grants = append(grants, n)
			return func(core.Job, core.Options) (core.Distributor, error) { return fake, nil }
		},
	})
	f := s.shardFactory()
	run := func() core.Distributor {
		d, err := f(core.Job{}, core.Options{})
		if err != nil {
			t.Fatalf("shardFactory: %v", err)
		}
		if d != nil {
			d.Close()
		}
		return d
	}

	if d := run(); d == nil {
		t.Fatal("unpressured attempt got no fleet")
	}
	spike(t, g, 1<<41, govern.RungHigh)
	if d := run(); d == nil {
		t.Fatal("high-rung attempt got no fleet (want a narrowed one)")
	}
	spike(t, g, 1<<43, govern.RungCritical)
	if d := run(); d != nil {
		t.Fatal("critical-rung attempt built a fleet, want local")
	}

	if len(grants) != 2 || grants[0] != 4 || grants[1] != 2 {
		t.Errorf("fleet grants = %v, want [4 2]", grants)
	}
	if got := s.Stats().Jobs.MemNarrowedFleets; got != 2 {
		t.Errorf("MemNarrowedFleets = %d, want 2 (one halved, one zeroed)", got)
	}
	if got := s.Stats().ShardSlotsInUse; got != 0 {
		t.Errorf("slots leaked: %d in use", got)
	}
}

// TestGovernedDaemonBitIdentical: the same job through a governed daemon
// under forced high pressure and a plain one — identical repair results
// (patches, repaired program, and the deterministic stats; the byte-level
// claim is the core differential suite's), with the governance episode
// visible in the aggregated engine stats.
func TestGovernedDaemonBitIdentical(t *testing.T) {
	plain := newTestServer(t, Config{Runners: 1})
	plain.Start()
	defer plain.Drain(30 * time.Second)
	pv := mustSubmit(t, plain, divZeroSpec("acme", "plain"))
	want := waitTerminal(t, plain, pv.ID, 60*time.Second)

	faultinject.Activate(&faultinject.Plan{MemRungEvery: 1, MemRung: int(govern.RungHigh)})
	defer faultinject.Deactivate()
	g := govern.New(govern.Config{CriticalStopPolls: 1 << 30})
	governed := newTestServer(t, Config{Runners: 1, Govern: g, GovernTick: -1})
	governed.Start()
	defer governed.Drain(30 * time.Second)
	gv := mustSubmit(t, governed, divZeroSpec("acme", "governed"))
	got := waitTerminal(t, governed, gv.ID, 60*time.Second)

	if stableFingerprint(got.Result) != stableFingerprint(want.Result) {
		t.Fatalf("governed daemon diverged:\n--- want ---\n%s\n--- got ---\n%s",
			stableFingerprint(want.Result), stableFingerprint(got.Result))
	}
	eng := governed.Stats().Engine
	if eng.GovernPolls == 0 || eng.MemRungHigh == 0 {
		t.Fatalf("governance episode missing from aggregated stats: %+v", eng)
	}
	if eng.MemCacheShrinks == 0 {
		t.Error("no cache shrinks aggregated under forced high pressure")
	}
}
