package main

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func spinForProfile(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestReadRealCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range p.samples {
		total += s.nanos
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.nanos
				break
			}
		}
	}
	if total == 0 || spin*2 < total {
		t.Fatalf("read %d samples, %v CPU, %v in spinForProfile; want most of it there",
			len(p.samples), time.Duration(total), time.Duration(spin))
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: cprd
Type: cpu
Duration: 1s, Total samples = 30000000ns ( 3.00%)
-----------+-------------------------------------------------------
10000000ns   runtime.mallocgc
             cpr/internal/expr.Simplify (inline)
             cpr/internal/patch.(*Refiner).Refine
-----------+-------------------------------------------------------
       job:  7
20000000ns   type:.eq.[2]interface {}
-----------+-------------------------------------------------------
`
	p, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{stack: []string{"runtime.mallocgc", "cpr/internal/expr.Simplify", "cpr/internal/patch.(*Refiner).Refine"}, nanos: 10000000},
		{stack: []string{"type:.eq.[2]interface {}"}, nanos: 20000000},
	}
	if !reflect.DeepEqual(p.samples, want) {
		t.Fatalf("parsed %+v, want %+v", p.samples, want)
	}
	if _, err := parseTraces("File: cprd\n-----------+----\nabc   runtime.main\n"); err == nil {
		t.Fatal("parseTraces accepted a sample without a value")
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Runtime leaves are charged to the nearest repository caller.
		{[]string{"runtime.mallocgc", "cpr/internal/expr.Simplify", "cpr/internal/patch.(*Refiner).Refine"}, "expr"},
		{[]string{"cpr/internal/smt/sat.(*Solver).propagate", "cpr/internal/smt.(*Solver).Check"}, "sat"},
		{[]string{"cpr/internal/smt/lia.solve.func1"}, "lia"},
		{[]string{"cpr/internal/smt/cache.(*Cache).Get"}, "smt_cache"},
		{[]string{"cpr/internal/smt.(*Solver).GetModel"}, "smt"},
		{[]string{"cpr/internal/lang/interp.Run"}, "lang"},
		{[]string{"syscall.Syscall", "cpr/internal/journal.(*Log).Append"}, "journal"},
		{[]string{"main.main", "runtime.main"}, "serve"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"net/http.(*conn).serve"}, "serve"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "unattributed"},
		// A repository package the benchmark has no layer for.
		{[]string{"cpr/internal/newpkg.F", "cpr/internal/core.Repair"}, "unattributed"},
		{[]string{"cpr/internal/mc.Count", "cpr/internal/core.(*engine).updateRanking"}, "core"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestAttributeCumulativeShares(t *testing.T) {
	p := &cpuProfile{samples: []cpuSample{
		{stack: []string{"runtime.mallocgc", "cpr/internal/expr.Simplify", "cpr/internal/patch.(*Refiner).Refine"}, nanos: 30},
		{stack: []string{"cpr/internal/smt/sat.(*Solver).solve", "cpr/internal/smt.(*Solver).GetModel", "cpr/internal/patch.(*Refiner).Refine"}, nanos: 50},
		{stack: []string{"runtime.gcBgMarkWorker"}, nanos: 20},
	}}
	a := attribute(p)
	if a.totalNanos != 100 {
		t.Fatalf("total %d", a.totalNanos)
	}
	want := map[string]int64{"expr": 30, "sat": 50, "gc": 20}
	for l, n := range want {
		if a.selfNanos[l] != n {
			t.Errorf("self %s = %d, want %d", l, a.selfNanos[l], n)
		}
	}
	cum := map[string]int64{"cum.refine_frac": 80, "cum.get_model_frac": 50, "cum.simplify_frac": 30, "cum.malloc_frac": 30}
	for k, n := range cum {
		if a.cumNanos[k] != n {
			t.Errorf("%s = %d, want %d", k, a.cumNanos[k], n)
		}
	}
}
