package main

// metricDecl declares one metric as BENCHMARK.json lists it. For a
// per-layer metric, Moves and On record, before anything is measured,
// which end-to-end metric a change to that layer should move and on which
// workload.
type metricDecl struct {
	Name, Unit, Better string
	Bound              float64
	Moves, On          string
}

// endToEnd are the metrics a user of the daemon sees, always taken from
// untraced runs.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "job_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_job", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: 0.01},
}

// cpuLayers are the daemon profile's self-CPU buckets, named after the
// repository's packages; see layerOf for the package mapping.
var cpuLayers = []string{
	"patch", "expr", "smt", "sat", "lia", "smt_cache", "smt_guard", "concolic",
	"synth", "interval", "lang", "core", "journal", "serve", "shard", "gc", "unattributed",
}

func perLayerDecls() []metricDecl {
	d := []metricDecl{
		{"serve.submit_ms", "ms", "lower", 0, "job_p50_ms", "explore"},
		{"serve.queue_ms", "ms", "lower", 0, "job_tail_ms", "service"},
		{"serve.run_ms", "ms", "lower", 0, "job_p50_ms", "service"},
		{"serve.rejected", "count", "lower", 0, "ok_frac", "service"},
		{"serve.retries", "count", "lower", 0, "job_tail_ms", "service"},
		{"journal.state_bytes", "bytes", "lower", 0, "cpu_s_per_job", "service"},
		{"io.wchar_per_job", "bytes", "lower", 0, "job_p50_ms", "explore"},
		{"io.syscw_per_job", "count", "lower", 0, "cpu_s_per_job", "service"},
		{"core.paths_explored", "count", "lower", 0, "cpu_s_per_job", "explore"},
		{"core.paths_skipped", "count", "higher", 0, "cpu_s_per_job", "explore"},
		{"core.refinements", "count", "lower", 0, "cpu_s_per_job", "extractfix"},
		{"core.removals", "count", "lower", 0, "cpu_s_per_job", "extractfix"},
		{"smt.queries", "count", "lower", 0, "cpu_s_per_job", "extractfix"},
		{"smt.cache_hit_rate", "ratio", "higher", 0, "cpu_s_per_job", "explore"},
		{"smt.enc_cache_hit_rate", "ratio", "higher", 0, "cpu_s_per_job", "explore"},
		{"smt.sat_ms", "ms", "lower", 0, "jobs_per_s", "extractfix"},
		{"smt.lia_ms", "ms", "lower", 0, "jobs_per_s", "extractfix"},
		{"smt.validate_ms", "ms", "lower", 0, "cpu_s_per_job", "extractfix"},
		{"smt.validations", "count", "lower", 0, "cpu_s_per_job", "extractfix"},
		{"smt.validation_failures", "count", "lower", 0, "ok_frac", "extractfix"},
		{"smt.unknowns", "count", "lower", 0, "ok_frac", "extractfix"},
		{"shard.steals", "count", "lower", 0, "jobs_per_s", "sharded"},
		{"shard.deaths", "count", "lower", 0, "job_p50_ms", "sharded"},
		{"shard.hedges", "count", "lower", 0, "job_p50_ms", "sharded"},
		{"shard.imported_verdicts", "count", "higher", 0, "jobs_per_s", "sharded"},
		{"shard.rejected_imports", "count", "lower", 0, "jobs_per_s", "sharded"},
	}
	cpuOn := map[string]string{
		"patch": "extractfix", "expr": "extractfix", "gc": "extractfix", "sat": "extractfix", "lia": "extractfix",
		"smt": "extractfix", "smt_guard": "extractfix", "interval": "extractfix",
		"core": "explore", "smt_cache": "explore", "concolic": "explore", "synth": "explore", "lang": "explore",
		"journal": "service", "serve": "service", "unattributed": "service",
		"shard": "sharded",
	}
	for _, l := range cpuLayers {
		d = append(d, metricDecl{"cpu." + l, "s", "lower", 0, "cpu_s_per_job", cpuOn[l]})
	}
	d = append(d,
		metricDecl{"cpu.attributed_frac", "ratio", "higher", 0, "", "all"},
		metricDecl{"cum.refine_frac", "ratio", "lower", 0, "jobs_per_s", "extractfix"},
		metricDecl{"cum.get_model_frac", "ratio", "lower", 0, "jobs_per_s", "extractfix"},
		metricDecl{"cum.simplify_frac", "ratio", "lower", 0, "jobs_per_s", "extractfix"},
		metricDecl{"cum.malloc_frac", "ratio", "lower", 0, "jobs_per_s", "extractfix"},
		metricDecl{"probe.parse_us", "us", "lower", 0, "job_p50_ms", "explore"},
		metricDecl{"probe.exec_us", "us", "lower", 0, "job_p50_ms", "explore"},
		metricDecl{"probe.flips", "count", "lower", 0, "job_p50_ms", "explore"},
		metricDecl{"probe.synth_ms", "ms", "lower", 0, "job_p50_ms", "explore"},
		metricDecl{"probe.templates", "count", "lower", 0, "job_p50_ms", "explore"},
		metricDecl{"probe.check_us", "us", "lower", 0, "job_p50_ms", "explore"},
		metricDecl{"probe.check_sat_frac", "ratio", "higher", 0, "job_p50_ms", "explore"},
		metricDecl{"probe.refine_ms", "ms", "lower", 0, "jobs_per_s", "extractfix"},
		metricDecl{"probe.region_boxes", "count", "lower", 0, "jobs_per_s", "extractfix"},
		metricDecl{"probe.merge_us", "us", "lower", 0, "jobs_per_s", "extractfix"},
		metricDecl{"probe.toterm_us", "us", "lower", 0, "jobs_per_s", "extractfix"},
		metricDecl{"probe.interp_us", "us", "lower", 0, "job_p50_ms", "explore"},
		metricDecl{"probe.alloc_mb", "MB", "lower", 0, "cpu_s_per_job", "extractfix"},
		metricDecl{"probe.gc_cpu_frac", "ratio", "lower", 0, "cpu_s_per_job", "extractfix"},
		metricDecl{"probe.solver_errors", "count", "lower", 0, "ok_frac", "explore"},
		metricDecl{"trace.jobs_per_s", "jobs/s", "higher", 0, "", "all"},
		metricDecl{"trace.cpu_s_per_job", "s", "lower", 0, "", "all"},
		metricDecl{"trace.wall_overhead_frac", "ratio", "lower", 0, "", "all"},
		metricDecl{"trace.cpu_overhead_frac", "ratio", "lower", 0, "", "all"},
	)
	return d
}

// perLayer are the metrics of a traced run.
var perLayer = perLayerDecls()

type layerMove struct {
	Moves string `json:"moves"`
	On    string `json:"on"`
}

// layerMoves is the declared prediction, printed with every result.
func layerMoves() map[string]layerMove {
	out := make(map[string]layerMove, len(perLayer))
	for _, d := range perLayer {
		if d.Moves != "" {
			out[d.Name] = layerMove{d.Moves, d.On}
		}
	}
	return out
}
