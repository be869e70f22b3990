// Command servicebench is the repository's benchmark. It starts the shipped
// cprd daemon as a subprocess and drives it over loopback HTTP with the
// paper's benchmark subjects as repair jobs ({"subject":"Project/BugID"}),
// in a closed loop: each client, like a repair user, waits for its job's
// answer before submitting the next. Everything is measured from outside
// the program: client spans around the HTTP calls, /proc for CPU, memory
// and I/O, the stats each job result returns, and — in a traced run — the
// daemon's own -cpuprofile plus in-process probes around direct calls into
// the engine's packages.
//
// Run it from the repository root through run.sh, which builds cprd and
// this program first:
//
//	bash servicebench/run.sh --workload extractfix --seed 1 --seconds 22 --trace 0
//	bash servicebench/run.sh compare -a ../parent -b . --workload explore
//
// Every job result is checked twice: its fingerprint must equal the one
// committed in reference.json, and the returned repaired program must
// pass a concrete interpreter oracle on the subject's failing inputs. The
// last line of standard output is one JSON object: correct is true when
// every job completed and matched its reference; failed counts refused,
// unfinished and mismatched jobs and oracle violations; metrics are the
// end-to-end metrics with --trace 0 and the per-layer metrics with
// --trace 1. The lines before it are one row per job and one report with
// the provenance, the failures and the degraded operations by subject.
//
// -record rewrites reference.json from a run instead of checking against
// it; the reference is recorded once, from the single-client workloads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"cpr/internal/bench"
)

// workload is one traffic mix. passSeconds is about the wall time of one
// pass over the subjects on a 2-core machine; a run does
// round(seconds/passSeconds) whole passes, so the number of jobs, and
// with it the tail percentile, is the same on every run of a workload. At
// the benchmark's 22 seconds that is 2 passes of extractfix, service and
// sharded and 5 of explore, whose odd count puts its median inside one
// subject's cluster of latencies.
type workload struct {
	name        string
	suites      []string
	clients     int
	flags       []string
	passSeconds float64
}

// Why each workload exists, and which layer it makes dominant:
//
//   - extractfix: Refine-dominated (patch.Refine and expr.Simplify hold
//     most of the CPU), and where the solver's model path matters.
//   - explore: flip feasibility dominates and jobs are short, so per-job
//     fixed costs (parse, synthesis, journal, HTTP) show; the only
//     workload where the in-process worker pool fans out.
//   - service: the deployment shape, two tenants sharing one heap, the
//     term interner and the fsync'd journal; memory and contention
//     changes show here.
//   - sharded: the explore jobs through the shard wire (fleet spawn,
//     frame codec, verdict-import validation) at the same 2-way
//     parallelism as explore.
var workloads = []workload{
	{name: "extractfix", suites: []string{bench.SuiteExtractFix}, clients: 1, passSeconds: 14.5},
	{name: "explore", suites: []string{bench.SuiteSVCOMP, bench.SuiteManyBugs}, clients: 1,
		flags: []string{"-engine-workers", "2"}, passSeconds: 4.5},
	{name: "service", suites: []string{bench.SuiteExtractFix, bench.SuiteManyBugs, bench.SuiteSVCOMP}, clients: 2,
		passSeconds: 13.5},
	{name: "sharded", suites: []string{bench.SuiteSVCOMP, bench.SuiteManyBugs}, clients: 1,
		flags: []string{"-shards", "2"}, passSeconds: 9.5},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subjects returns the workload's runnable subjects in catalog order.
func (w workload) subjects() []*bench.Subject {
	var out []*bench.Subject
	for _, suite := range w.suites {
		for _, s := range bench.Catalog(suite) {
			if s.Unsupported == "" {
				out = append(out, s)
			}
		}
	}
	return out
}

func (w workload) passes(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/w.passSeconds)))
}

// schedule is the seeded job order: every pass visits every subject once,
// in a fresh permutation.
func schedule(ids []string, passes int, seed int64) []schedItem {
	r := rand.New(rand.NewSource(seed))
	var out []schedItem
	for p := 0; p < passes; p++ {
		for _, i := range r.Perm(len(ids)) {
			out = append(out, schedItem{subject: ids[i], pass: p})
		}
	}
	return out
}

// setupReps is how many daemons each run starts to time set-up; the last
// one serves the run.
const setupReps = 9

type config struct {
	root, cprd string
	workload   workload
	seed       int64
	seconds    int
	trace      bool
	record     bool
}

func main() {
	var (
		cfg      config
		wlName   = flag.String("workload", "", "workload: extractfix, explore, service or sharded")
		traceArg = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.StringVar(&cfg.root, "root", ".", "repository checkout to run in")
	flag.StringVar(&cfg.cprd, "cprd", "", "cprd binary built from the checkout")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the job order")
	flag.IntVar(&cfg.seconds, "seconds", 20, "target measured seconds; sets the number of passes")
	flag.BoolVar(&cfg.record, "record", false, "write reference.json from this run instead of checking against it")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		if err := compareMain(flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "servicebench compare:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*wlName)
	if !ok || cfg.cprd == "" || (*traceArg != 0 && *traceArg != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.workload, cfg.trace = w, *traceArg == 1
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, cfg config) error {
	w := cfg.workload
	refPath := filepath.Join(cfg.root, "servicebench", "reference.json")
	var ref reference
	if !cfg.record {
		var err error
		if ref, err = loadReference(refPath); err != nil {
			return err
		}
	}
	subjects := w.subjects()
	byID := map[string]*bench.Subject{}
	var ids []string
	for _, s := range subjects {
		byID[s.ID()] = s
		ids = append(ids, s.ID())
	}
	passes := w.passes(cfg.seconds)
	sched := schedule(ids, passes, cfg.seed)

	runDir := filepath.Join(cfg.root, ".bench_build", "run", w.name)
	if err := os.RemoveAll(runDir); err != nil {
		return err
	}
	var setups []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("daemon%d", i))
		var err error
		d, err = startDaemon(ctx, cfg.cprd, filepath.Join(dir, "state"), filepath.Join(dir, "cprd.log"), w.flags)
		if err != nil {
			return err
		}
		setups = append(setups, d.setup.Seconds())
		if i < setupReps-1 {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	plain, err := measure(ctx, d, sched, w.clients)
	if err != nil {
		return err
	}
	if cfg.record {
		if err := writeReference(refPath, plain.recs); err != nil {
			return err
		}
	}
	correct, failed := checkJobs(plain.recs, ref, byID)
	e2e := endToEndOf(plain, setups, w.clients, failed)

	rep := report{
		Provenance:   provenanceOf(cfg, passes, len(plain.recs)),
		EndToEnd:     e2e,
		TailPct:      plain.tailPct,
		TailN:        len(plain.latencies),
		P50SampleMS:  median(plain.latencies),
		TailSampleMS: nearestRank(plain.latencies, plain.tailPct),
		WallS:        plain.wall,
		Setups:       setups,
		Failures:     failuresOf(plain.recs),
		Degraded:     degradedOf(subjects, plain.recs),
		Moves:        layerMoves(),
	}
	out := summary{Correct: correct, Attempted: len(plain.recs), Failed: failed, Metrics: e2e}
	var traced measurement
	if cfg.trace {
		// The same schedule again, through a daemon that writes a CPU
		// profile; its overhead is measured against the run above.
		profPath := filepath.Join(runDir, "traced", "cpu.pprof")
		d, err := startDaemon(ctx, cfg.cprd, filepath.Join(runDir, "traced", "state"),
			filepath.Join(runDir, "traced", "cprd.log"), append([]string{"-cpuprofile", profPath}, w.flags...))
		if err != nil {
			return err
		}
		if traced, err = measure(ctx, d, sched, w.clients); err != nil {
			return err
		}
		tc, tf := checkJobs(traced.recs, ref, byID)
		out.Correct = out.Correct && tc
		out.Attempted += len(traced.recs)
		out.Failed += tf
		tracedE2E := endToEndOf(traced, []float64{d.setup.Seconds()}, w.clients, tf)
		layers, profCPU, err := traceLayers(cfg, traced, tracedE2E, e2e, profPath)
		if err != nil {
			return err
		}
		rep.Trace = &traceReport{ProfileSeconds: profCPU, EndToEnd: tracedE2E, Failures: failuresOf(traced.recs)}
		out.Metrics = layers
	}
	if err := checkNames(out.Metrics, cfg.trace); err != nil {
		return err
	}

	enc := json.NewEncoder(os.Stdout)
	for i, recs := range [][]jobRecord{plain.recs, traced.recs} {
		for _, r := range recs {
			if err := enc.Encode(map[string]any{"job": rowOf(r, i == 1)}); err != nil {
				return err
			}
		}
	}
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		return err
	}
	return enc.Encode(out)
}

// measurement is one timed drive of the schedule through one daemon.
type measurement struct {
	recs          []jobRecord
	wall          float64 // seconds
	before, after procSample
	peakMB        float64
	stateBytes    int64
	latencies     []float64 // ms, of the accepted jobs
	tailMS        float64
	tailPct       int
}

// measure drives the schedule through d and stops d.
func measure(ctx context.Context, d *daemon, sched []schedItem, clients int) (measurement, error) {
	var m measurement
	var err error
	if m.before, err = readProc(d.pid()); err != nil {
		d.kill()
		return m, err
	}
	rss := watchRSS(d.pid())
	t0 := time.Now()
	recs, derr := drive(ctx, "http://"+d.addr, sched, clients)
	m.wall = time.Since(t0).Seconds()
	after, perr := readProc(d.pid())
	m.peakMB = rss.peakMB()
	if err := errors.Join(derr, perr); err != nil {
		d.kill()
		return m, err
	}
	if err := d.stop(); err != nil {
		return m, err
	}
	m.recs, m.after, m.stateBytes = recs, after, dirBytes(d.state)
	for _, r := range recs {
		if r.HTTPStatus == http.StatusAccepted {
			m.latencies = append(m.latencies, r.LatencyMS)
		}
	}
	m.tailMS, m.tailPct = tail(m.latencies)
	return m, nil
}

// checkJobs runs the correctness gate on every job: the reference
// fingerprint (skipped when ref is nil) and the concrete oracle. correct
// is whether every job completed and matched its reference; failed counts
// the jobs that failed either check or did not complete.
func checkJobs(recs []jobRecord, ref reference, byID map[string]*bench.Subject) (correct bool, failed int) {
	correct = true
	for i := range recs {
		r := &recs[i]
		if r.View.State == "done" && r.View.Result != nil {
			if ref != nil {
				if err := checkReference(ref, r.Subject, r.View.Result); err != nil {
					r.RefErr = err.Error()
					correct = false
				}
			}
			if err := oracle(byID[r.Subject], r.View.Result.Repaired); err != nil {
				r.OracleErr = err.Error()
			}
		} else {
			correct = false
		}
		if r.failed() {
			failed++
		}
	}
	return correct, failed
}

// endToEndOf computes the end-to-end metrics of one measurement.
func endToEndOf(m measurement, setups []float64, clients, failed int) map[string]metric {
	jobs := float64(len(m.recs))
	busyMS := 0.0
	for _, r := range m.recs {
		busyMS += r.LatencyMS
	}
	cpuS := float64(m.after.cpuTicks-m.before.cpuTicks) / clockTick
	return map[string]metric{
		"setup_s": {median(setups), "s"},
		// Throughput while every client has a job outstanding: ok jobs
		// over client-busy seconds per client. Unlike jobs over wall
		// time it does not depend on which job the seeded order leaves
		// running alone at the end of the run.
		"jobs_per_s":    {(jobs - float64(failed)) / (busyMS / 1000 / float64(clients)), "jobs/s"},
		"job_p50_ms":    {hdQuantile(m.latencies, 0.5), "ms"},
		"job_tail_ms":   {m.tailMS, "ms"},
		"cpu_s_per_job": {cpuS / jobs, "s"},
		"peak_rss_mb":   {m.peakMB, "MB"},
		"ok_frac":       {(jobs - float64(failed)) / jobs, "ratio"},
	}
}

// checkNames verifies that a result carries exactly the metrics the
// benchmark declares for its mode.
func checkNames(m map[string]metric, trace bool) error {
	decl := endToEnd
	if trace {
		decl = perLayer
	}
	if len(m) != len(decl) {
		return fmt.Errorf("internal: %d metrics computed, %d declared", len(m), len(decl))
	}
	for _, d := range decl {
		got, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("internal: metric %s not computed", d.Name)
		}
		if got.Unit != d.Unit {
			return fmt.Errorf("internal: metric %s has unit %s, declared %s", d.Name, got.Unit, d.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, got.Value)
		}
	}
	return nil
}
