package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cpr/internal/bench"
)

func TestScheduleIsSeededPermutationPerPass(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e", "f"}
	s1 := schedule(ids, 3, 7)
	if !reflect.DeepEqual(s1, schedule(ids, 3, 7)) {
		t.Fatal("same seed gave two different schedules")
	}
	if reflect.DeepEqual(s1, schedule(ids, 3, 8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for p := 0; p < 3; p++ {
		seen := map[string]int{}
		for _, it := range s1[p*len(ids) : (p+1)*len(ids)] {
			if it.pass != p {
				t.Fatalf("item %v in pass %d", it, p)
			}
			seen[it.subject]++
		}
		if len(seen) != len(ids) {
			t.Fatalf("pass %d visits %v", p, seen)
		}
	}
}

func TestWorkloadSubjects(t *testing.T) {
	want := map[string]int{"extractfix": 28, "explore": 15, "service": 43, "sharded": 15}
	for _, w := range workloads {
		subjects := w.subjects()
		if len(subjects) != want[w.name] {
			t.Errorf("%s: %d subjects, want %d", w.name, len(subjects), want[w.name])
		}
		for _, s := range subjects {
			if s.Unsupported != "" {
				t.Errorf("%s includes unrunnable %s", w.name, s.ID())
			}
		}
	}
}

// TestReferenceCoversEverySubject checks the committed reference against
// the catalog: every runnable subject has exactly one fingerprint.
func TestReferenceCoversEverySubject(t *testing.T) {
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("service")
	for _, s := range w.subjects() {
		if _, ok := ref[s.ID()]; !ok {
			t.Errorf("no reference for %s", s.ID())
		}
	}
	if len(ref) != len(w.subjects()) {
		t.Errorf("reference has %d entries for %d subjects", len(ref), len(w.subjects()))
	}
}

func TestOracle(t *testing.T) {
	s := &bench.Subject{Failing: []map[string]int64{{"x": 0}}}
	fixed := "void main(int x) {\n    if (x == 0) {\n        return;\n    }\n    __BUG__;\n    int c = 10 / x;\n}\n"
	if err := oracle(s, fixed); err != nil {
		t.Errorf("oracle rejected a repaired program: %v", err)
	}
	broken := strings.Replace(fixed, "x == 0", "x == 1", 1)
	if err := oracle(s, broken); err == nil {
		t.Error("oracle accepted a program that still divides by zero")
	}
	if err := oracle(s, ""); err == nil {
		t.Error("oracle accepted an empty repair")
	}
	if err := oracle(s, "void main(int x) {"); err == nil {
		t.Error("oracle accepted an unparsable repair")
	}
}

func TestCheckReference(t *testing.T) {
	res := &jobResult{TopPatches: []string{"#1 x == 0"}, Stats: engineStats{PInit: 4, PFinal: 1, PathsExplored: 3}}
	ref := reference{"P/1": fingerprintOf(res)}
	if err := checkReference(ref, "P/1", res); err != nil {
		t.Fatalf("identical result rejected: %v", err)
	}
	changed := *res
	changed.Stats.PathsExplored++
	if err := checkReference(ref, "P/1", &changed); err == nil {
		t.Fatal("changed φE accepted")
	}
	if err := checkReference(ref, "P/2", res); err == nil {
		t.Fatal("subject without a reference accepted")
	}
	// Counters outside the fingerprint may change freely.
	timing := *res
	timing.Stats.SatTime = 12345
	if err := checkReference(ref, "P/1", &timing); err != nil {
		t.Fatalf("solver time entered the fingerprint: %v", err)
	}
}

func TestWriteReferenceMerges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ref.json")
	mk := func(subject string, phiE int) jobRecord {
		return jobRecord{Subject: subject, View: jobView{State: "done",
			Result: &jobResult{Stats: engineStats{PathsExplored: phiE}}}}
	}
	if err := writeReference(path, []jobRecord{mk("A/1", 1), mk("A/1", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := writeReference(path, []jobRecord{mk("B/1", 2)}); err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference(path)
	if err != nil {
		t.Fatal(err)
	}
	if ref["A/1"].PhiE != 1 || ref["B/1"].PhiE != 2 {
		t.Fatalf("merged reference = %+v", ref)
	}
	if err := writeReference(path, []jobRecord{mk("C/1", 1), mk("C/1", 2)}); err == nil {
		t.Fatal("two different results of one subject recorded")
	}
}

// fakeDaemon serves the subset of cprd's API the client uses: each job
// runs for a fixed time and completes with a result naming its subject.
type fakeDaemon struct {
	mu       sync.Mutex
	next     int
	subjects map[string]string
	running  int
	maxRun   int
}

func (f *fakeDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec struct{ Subject string }
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil || r.Header.Get("X-Tenant") == "" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		id := fmt.Sprintf("j-%06d", f.next)
		f.next++
		f.subjects[id] = spec.Subject
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(jobView{ID: id, State: "queued"})
	})
	mux.HandleFunc("GET /jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		f.mu.Lock()
		subject := f.subjects[id]
		f.running++
		f.maxRun = max(f.maxRun, f.running)
		f.mu.Unlock()
		enc := json.NewEncoder(w)
		_ = enc.Encode(jobView{ID: id, State: "running", Attempts: 1})
		w.(http.Flusher).Flush()
		time.Sleep(5 * time.Millisecond)
		f.mu.Lock()
		f.running--
		f.mu.Unlock()
		_ = enc.Encode(jobView{ID: id, State: "done", Attempts: 1,
			Result: &jobResult{TopPatches: []string{subject}}})
	})
	return mux
}

func TestDriveClosedLoop(t *testing.T) {
	f := &fakeDaemon{subjects: map[string]string{}}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	ids := []string{"a/1", "b/2", "c/3", "d/4", "e/5"}
	sched := schedule(ids, 2, 3)
	recs, err := drive(context.Background(), srv.URL, sched, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sched) {
		t.Fatalf("%d records for %d jobs", len(recs), len(sched))
	}
	for i, r := range recs {
		if r.Subject != sched[i].subject || r.View.State != "done" || r.View.Result.TopPatches[0] != r.Subject {
			t.Fatalf("record %d = %+v", i, r)
		}
		if r.LatencyMS < r.RunMS || r.RunMS < 4 || r.failed() {
			t.Fatalf("record %d spans: %+v", i, r)
		}
	}
	if f.maxRun > 2 {
		t.Fatalf("%d jobs ran at once with 2 closed-loop clients", f.maxRun)
	}
}

// TestProbesSingleGoroutine runs the in-process probes on two subjects;
// under -race it checks that the harness itself shares no state across
// goroutines while probing.
func TestProbesSingleGoroutine(t *testing.T) {
	var subjects []*bench.Subject
	for _, id := range [][2]string{{"Libtiff", "CVE-2016-3623"}, {"loops", "eureka"}} {
		s := bench.Find(id[0], id[1])
		if s == nil {
			t.Fatalf("no subject %s/%s", id[0], id[1])
		}
		subjects = append(subjects, s)
	}
	m, err := runProbes(subjects)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"probe.parse_us", "probe.exec_us", "probe.synth_ms", "probe.check_us", "probe.refine_ms"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
	if m["probe.templates"].Value == 0 || m["probe.flips"].Value == 0 {
		t.Errorf("probes did no work: %+v", m)
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// harness's declarations in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s unknown to the harness", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, harness has %d workloads", names, len(workloads))
	}
	same := func(kind string, got, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	var layers []metricDecl
	for _, d := range perLayer {
		layers = append(layers, metricDecl{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	same("per_layer", bf.PerLayer, layers)
}

func TestCompareWithholdsGainWhenMoreJobsFail(t *testing.T) {
	side := func(base float64, failed int) []summary {
		var out []summary
		for i := 0; i < comparePairs; i++ {
			out = append(out, summary{Correct: true, Failed: failed,
				Metrics: map[string]metric{"job_p50_ms": {base + float64(i%3), "ms"}}})
		}
		return out
	}
	a := side(100, 2)
	if c := compareMetric("explore", "job_p50_ms", "lower", 0.25, a, side(80, 2)); c.Verdict != "improved" {
		t.Fatalf("faster B with equal failures: %s, want improved", c.Verdict)
	}
	if c := compareMetric("explore", "job_p50_ms", "lower", 0.25, a, side(80, 3)); c.Verdict != "unresolved" {
		t.Fatalf("faster B with more failures: %s, want unresolved", c.Verdict)
	}
	if c := compareMetric("explore", "job_p50_ms", "lower", 0.25, a, side(140, 2)); c.Verdict != "regressed" {
		t.Fatalf("slower B: %s, want regressed", c.Verdict)
	}
}
