package main

import "net/http"

// traceReport is what a traced run adds to the report besides its
// per-layer metrics: the traced drive's own end-to-end numbers and
// failures.
type traceReport struct {
	// ProfileSeconds is the daemon CPU the profile sampled.
	ProfileSeconds float64           `json:"profile_cpu_s"`
	EndToEnd       map[string]metric `json:"end_to_end"`
	Failures       []failure         `json:"failures"`
}

// traceLayers builds the per-layer metrics of a traced run from its four
// sources: the daemon's CPU profile, the client spans, the per-job engine
// stats, and in-process probes on the workload's subjects. e2e are the
// traced drive's end-to-end numbers and plain those of the untraced drive
// of the same schedule that precedes it; their difference is the tracing
// overhead. It also returns the daemon CPU seconds the profile sampled.
func traceLayers(cfg config, t measurement, e2e, plain map[string]metric, profPath string) (map[string]metric, float64, error) {
	m := map[string]metric{}
	recs := t.recs
	jobs := float64(len(recs))

	// Client spans.
	var submit, queue, runMS []float64
	rejected, retries := 0, 0
	for _, r := range recs {
		submit = append(submit, r.SubmitMS)
		if r.HTTPStatus != http.StatusAccepted {
			rejected++
			continue
		}
		queue = append(queue, r.QueueMS)
		runMS = append(runMS, r.RunMS)
		if r.View.Attempts > 1 {
			retries += r.View.Attempts - 1
		}
	}
	m["serve.submit_ms"] = metric{median(submit), "ms"}
	m["serve.queue_ms"] = metric{median(queue), "ms"}
	m["serve.run_ms"] = metric{median(runMS), "ms"}
	m["serve.rejected"] = metric{float64(rejected), "count"}
	m["serve.retries"] = metric{float64(retries), "count"}
	m["journal.state_bytes"] = metric{float64(t.stateBytes), "bytes"}
	m["io.wchar_per_job"] = metric{float64(t.after.wchar-t.before.wchar) / jobs, "bytes"}
	m["io.syscw_per_job"] = metric{float64(t.after.syscw-t.before.syscw) / jobs, "count"}

	// Per-job engine stats: work per job, failures as run totals.
	var st engineStats
	for _, r := range recs {
		if r.View.Result == nil {
			continue
		}
		s := r.View.Result.Stats
		st.PathsExplored += s.PathsExplored
		st.PathsSkipped += s.PathsSkipped
		st.Refinements += s.Refinements
		st.Removals += s.Removals
		st.SolverUnknowns += s.SolverUnknowns
		st.SolverQueries += s.SolverQueries
		st.CacheHits += s.CacheHits
		st.CacheMisses += s.CacheMisses
		st.EncodeCacheHits += s.EncodeCacheHits
		st.EncodeCacheMisses += s.EncodeCacheMisses
		st.Validations += s.Validations
		st.ValidationFailures += s.ValidationFailures
		st.SatTime += s.SatTime
		st.LIATime += s.LIATime
		st.ValidateTime += s.ValidateTime
		st.ShardSteals += s.ShardSteals
		st.ShardDeaths += s.ShardDeaths
		st.ShardHedges += s.ShardHedges
		st.ShardImportedVerdicts += s.ShardImportedVerdicts
		st.ShardRejectedImports += s.ShardRejectedImports
	}
	perJob := func(v float64) float64 { return v / jobs }
	nsToMS := func(ns int64) float64 { return perJob(float64(ns) / 1e6) }
	m["core.paths_explored"] = metric{perJob(float64(st.PathsExplored)), "count"}
	m["core.paths_skipped"] = metric{perJob(float64(st.PathsSkipped)), "count"}
	m["core.refinements"] = metric{perJob(float64(st.Refinements)), "count"}
	m["core.removals"] = metric{perJob(float64(st.Removals)), "count"}
	m["smt.queries"] = metric{perJob(float64(st.SolverQueries)), "count"}
	m["smt.cache_hit_rate"] = metric{ratio(st.CacheHits, st.CacheHits+st.CacheMisses), "ratio"}
	m["smt.enc_cache_hit_rate"] = metric{ratio(st.EncodeCacheHits, st.EncodeCacheHits+st.EncodeCacheMisses), "ratio"}
	m["smt.sat_ms"] = metric{nsToMS(st.SatTime), "ms"}
	m["smt.lia_ms"] = metric{nsToMS(st.LIATime), "ms"}
	m["smt.validate_ms"] = metric{nsToMS(st.ValidateTime), "ms"}
	m["smt.validations"] = metric{perJob(float64(st.Validations)), "count"}
	m["smt.validation_failures"] = metric{float64(st.ValidationFailures), "count"}
	m["smt.unknowns"] = metric{float64(st.SolverUnknowns), "count"}
	m["shard.steals"] = metric{perJob(float64(st.ShardSteals)), "count"}
	m["shard.deaths"] = metric{float64(st.ShardDeaths), "count"}
	m["shard.hedges"] = metric{perJob(float64(st.ShardHedges)), "count"}
	m["shard.imported_verdicts"] = metric{perJob(float64(st.ShardImportedVerdicts)), "count"}
	m["shard.rejected_imports"] = metric{float64(st.ShardRejectedImports), "count"}

	// Daemon CPU profile.
	prof, err := readProfile(profPath)
	if err != nil {
		return nil, 0, err
	}
	a := attribute(prof)
	for _, l := range cpuLayers {
		m["cpu."+l] = metric{perJob(float64(a.selfNanos[l]) / 1e9), "s"}
	}
	total := float64(a.totalNanos)
	m["cpu.attributed_frac"] = metric{frac(total-float64(a.selfNanos["unattributed"]), total), "ratio"}
	for name := range cumFuncs {
		m[name] = metric{frac(float64(a.cumNanos[name]), total), "ratio"}
	}

	// In-process probes.
	probes, err := runProbes(cfg.workload.subjects())
	if err != nil {
		return nil, 0, err
	}
	for k, v := range probes {
		m[k] = v
	}

	// The traced drive's own end-to-end numbers and their overhead
	// against the untraced drive.
	jps, cpu := e2e["jobs_per_s"].Value, e2e["cpu_s_per_job"].Value
	m["trace.jobs_per_s"] = metric{jps, "jobs/s"}
	m["trace.cpu_s_per_job"] = metric{cpu, "s"}
	m["trace.wall_overhead_frac"] = metric{plain["jobs_per_s"].Value/jps - 1, "ratio"}
	m["trace.cpu_overhead_frac"] = metric{cpu/plain["cpu_s_per_job"].Value - 1, "ratio"}
	return m, total / 1e9, nil
}

func ratio(a, b uint64) float64 { return frac(float64(a), float64(b)) }

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
