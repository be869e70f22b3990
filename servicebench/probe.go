package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"cpr/internal/bench"
	"cpr/internal/concolic"
	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/lang/interp"
	"cpr/internal/patch"
	"cpr/internal/smt"
	"cpr/internal/synth"
)

// prober times direct calls into the engine's layers on the first steps
// of a repair: parse, synthesis, concolic execution of each failing input
// under the initial top patch, feasibility of each first-generation flip,
// Refine of each initial pool patch on the failing path, region merge and
// rendering, and the reference interpreter. runtime/metrics is read
// around each call for the bytes it allocates, and around the whole
// probing phase for the share of CPU spent in the collector (the runtime
// updates its CPU classes only at collections).
//
// A solver error (a budget, or a term outside the solver's theory) is
// what the engine degrades to an unknown verdict; the probes skip the
// call the same way and count it in solverErrs.
//
// A prober must be used from one goroutine: bench.Subject parses its
// program lazily without synchronisation.
type prober struct {
	spans      map[string]*span
	flips      int
	templates  int
	checks     int
	checkSat   int
	boxes      int
	solverErrs int
	alloc      []metrics.Sample
	allocB     uint64
}

type span struct {
	nanos int64
	calls int
}

func newProber() *prober {
	return &prober{
		spans: map[string]*span{},
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// time runs f as one call of the named probe.
func (p *prober) time(name string, f func()) {
	metrics.Read(p.alloc)
	a0 := p.alloc[0].Value.Uint64()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	metrics.Read(p.alloc)
	p.allocB += p.alloc[0].Value.Uint64() - a0
	s := p.spans[name]
	if s == nil {
		s = &span{}
		p.spans[name] = s
	}
	s.nanos += int64(d)
	s.calls++
}

// mean returns the probe's mean call time in the given unit.
func (p *prober) mean(name string, unit time.Duration) float64 {
	s := p.spans[name]
	if s == nil || s.calls == 0 {
		return 0
	}
	return float64(s.nanos) / float64(s.calls) / float64(unit)
}

func (p *prober) subject(s *bench.Subject) error {
	var err error
	p.time("parse", func() { _, err = lang.Parse(s.Source) })
	if err != nil {
		return fmt.Errorf("%s: parse: %w", s.ID(), err)
	}
	job, err := s.Job(core.Budget{})
	if err != nil {
		return fmt.Errorf("%s: %w", s.ID(), err)
	}
	var pool *patch.Pool
	p.time("synth", func() {
		templates := synth.Synthesize(job.Components, job.Program.HoleType)
		p.templates += len(templates)
		pool = synth.BuildPool(templates, job.Components)
	})
	ranked := pool.Ranked()
	if len(ranked) == 0 {
		return nil
	}
	top := ranked[0]
	params, ok := top.AnyParams()
	if !ok {
		return nil
	}
	solver := smt.NewSolver(smt.Options{})
	for _, in := range job.FailingInputs {
		var exec *concolic.Execution
		p.time("exec", func() {
			exec = concolic.Execute(job.Program, in, concolic.Options{Patch: top.Expr, PatchParams: params})
		})
		flips := concolic.Flips(exec, 0)
		p.flips += len(flips)
		for _, f := range flips {
			var res smt.Result
			p.time("check", func() { res, err = solver.Check(f.Constraint(), job.InputBounds) })
			if err != nil {
				p.solverErrs++
				continue
			}
			p.checks++
			if res.Status == smt.Sat {
				p.checkSat++
			}
		}
		if exec.HitBug() {
			p.refinePool(job, pool, exec, solver)
		}
		p.time("interp", func() {
			interp.Run(job.Program, in, interp.Options{Hole: top.Expr, HoleParams: params})
		})
	}
	return nil
}

// refinePool refines every initial pool patch that can run on the failing
// path against the specification instantiated on it, as the engine's
// first reduction does.
func (p *prober) refinePool(job core.Job, pool *patch.Pool, exec *concolic.Execution, solver *smt.Solver) {
	phi := exec.PathConstraint()
	var sigmas []*expr.Term
	for _, h := range exec.BugHits {
		sigmas = append(sigmas, expr.Subst(job.Spec, h.Snapshot))
	}
	sigma := expr.And(sigmas...)
	for _, pt := range pool.Patches {
		psis := make([]*expr.Term, len(exec.HoleHits))
		for i, h := range exec.HoleHits {
			psis[i] = pt.Formula(h.Out, h.Snapshot)
		}
		psi := expr.And(psis...)
		bounds := make(map[string]interval.Interval, len(job.InputBounds)+len(pt.Params))
		for k, v := range job.InputBounds {
			bounds[k] = v
		}
		for k, v := range pt.ParamBounds() {
			bounds[k] = v
		}
		feasible, err := solver.IsSat(expr.And(phi, psi, pt.ConstraintTerm()), bounds)
		if err != nil {
			p.solverErrs++
			continue
		}
		if !feasible {
			continue
		}
		var region interval.Region
		ref := &patch.Refiner{Solver: solver, InputBounds: job.InputBounds}
		p.time("refine", func() { region, err = ref.Refine(phi, psi, sigma, pt, pt.Constraint) })
		if err != nil {
			p.solverErrs++
			continue
		}
		p.boxes += len(region.Boxes)
		p.time("merge", func() { region.Merge() })
		p.time("toterm", func() { region.ToTerm(pt.Params) })
	}
}

// runProbes probes every subject once and returns the probe.* metrics.
func runProbes(subjects []*bench.Subject) (map[string]metric, error) {
	p := newProber()
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	gc0, total0 := cpu[0].Value.Float64(), cpu[1].Value.Float64()
	for _, s := range subjects {
		if err := p.subject(s); err != nil {
			return nil, fmt.Errorf("probe %w", err)
		}
	}
	metrics.Read(cpu)
	checkSatFrac, gcFrac := 0.0, 0.0
	if p.checks > 0 {
		checkSatFrac = float64(p.checkSat) / float64(p.checks)
	}
	if total := cpu[1].Value.Float64() - total0; total > 0 {
		gcFrac = (cpu[0].Value.Float64() - gc0) / total
	}
	return map[string]metric{
		"probe.parse_us":       {p.mean("parse", time.Microsecond), "us"},
		"probe.exec_us":        {p.mean("exec", time.Microsecond), "us"},
		"probe.flips":          {float64(p.flips), "count"},
		"probe.synth_ms":       {p.mean("synth", time.Millisecond), "ms"},
		"probe.templates":      {float64(p.templates), "count"},
		"probe.check_us":       {p.mean("check", time.Microsecond), "us"},
		"probe.check_sat_frac": {checkSatFrac, "ratio"},
		"probe.refine_ms":      {p.mean("refine", time.Millisecond), "ms"},
		"probe.region_boxes":   {float64(p.boxes), "count"},
		"probe.merge_us":       {p.mean("merge", time.Microsecond), "us"},
		"probe.toterm_us":      {p.mean("toterm", time.Microsecond), "us"},
		"probe.interp_us":      {p.mean("interp", time.Microsecond), "us"},
		"probe.alloc_mb":       {float64(p.allocB) / (1 << 20), "MB"},
		"probe.gc_cpu_frac":    {gcFrac, "ratio"},
		"probe.solver_errors":  {float64(p.solverErrs), "count"},
	}, nil
}
