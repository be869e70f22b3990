package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"cpr/internal/bench"
)

// report is the record printed before the result line: where, how and on
// what the run was made, plus everything a reader needs to interpret it.
type report struct {
	Provenance provenance        `json:"provenance"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	// TailPct and TailN qualify job_tail_ms: the percentile it is taken
	// at and the number of latencies it is taken from. The Sample fields
	// are the plain order statistics beside the Harrell–Davis estimates
	// the metrics report.
	TailPct      int                  `json:"tail_percentile"`
	TailN        int                  `json:"tail_n"`
	P50SampleMS  float64              `json:"job_p50_sample_ms"`
	TailSampleMS float64              `json:"job_tail_sample_ms"`
	WallS        float64              `json:"wall_s"`
	Setups       []float64            `json:"setup_s_each"`
	Failures     []failure            `json:"failures"`
	Degraded     map[string]degraded  `json:"degraded_by_subject"`
	Moves        map[string]layerMove `json:"layer_moves"`
	Trace        *traceReport         `json:"trace,omitempty"`
}

type provenance struct {
	NumCPU       int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	CPUModel     string   `json:"cpu_model"`
	GoVersion    string   `json:"go_version"`
	Commit       string   `json:"commit"`
	SourceDigest string   `json:"source_sha256"`
	Cprd         string   `json:"cprd_version"`
	Seed         int64    `json:"seed"`
	Workload     string   `json:"workload"`
	CprdFlags    []string `json:"cprd_flags"`
	Clients      int      `json:"clients"`
	Passes       int      `json:"passes"`
	Jobs         int      `json:"jobs"`
	Seconds      int      `json:"seconds"`
	Trace        bool     `json:"trace"`
}

func provenanceOf(cfg config, passes, jobs int) provenance {
	p := provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       cfg.seed,
		Workload:   cfg.workload.name,
		CprdFlags:  append([]string{"-state", "<dir>", "-addr", "127.0.0.1:0"}, cfg.workload.flags...),
		Clients:    cfg.workload.clients,
		Passes:     passes,
		Jobs:       jobs,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
	if _, err := os.Stat(filepath.Join(cfg.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
	}
	p.SourceDigest = sourceDigest(cfg.root)
	if out, err := exec.Command(cfg.cprd, "-version").Output(); err == nil {
		p.Cprd = strings.TrimSpace(string(out))
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the measured code when the checkout carries no
// git metadata: a SHA-256 over the paths and contents of every Go source
// and go.mod file, in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && (e.Name() == ".bench_build" || e.Name() == ".git") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

type failure struct {
	Subject string `json:"subject"`
	Pass    int    `json:"pass"`
	Reason  string `json:"reason"`
}

func failuresOf(recs []jobRecord) []failure {
	out := []failure{}
	for _, r := range recs {
		if !r.failed() {
			continue
		}
		var reason string
		switch {
		case r.HTTPStatus != http.StatusAccepted:
			reason = fmt.Sprintf("refused: HTTP %d", r.HTTPStatus)
		case r.View.State != "done":
			reason = fmt.Sprintf("ended %s: %s", r.View.State, r.View.Error)
		case r.RefErr != "":
			reason = "reference mismatch: " + r.RefErr
		default:
			reason = "oracle violation: " + r.OracleErr
		}
		out = append(out, failure{r.Subject, r.Pass, reason})
	}
	return out
}

// degraded are the operations a job survived by degrading rather than
// failing. They are reported for every subject, zeros included.
type degraded struct {
	ValidationFailures   uint64 `json:"smt.validation_failures"`
	Unknowns             int    `json:"smt.unknowns"`
	ShardDeaths          uint64 `json:"shard.deaths"`
	ShardRejectedImports uint64 `json:"shard.rejected_imports"`
}

func degradedOf(subjects []*bench.Subject, recs []jobRecord) map[string]degraded {
	out := make(map[string]degraded, len(subjects))
	for _, s := range subjects {
		out[s.ID()] = degraded{}
	}
	for _, r := range recs {
		if r.View.Result == nil {
			continue
		}
		st := r.View.Result.Stats
		d := out[r.Subject]
		d.ValidationFailures += st.ValidationFailures
		d.Unknowns += st.SolverUnknowns
		d.ShardDeaths += st.ShardDeaths
		d.ShardRejectedImports += st.ShardRejectedImports
		out[r.Subject] = d
	}
	return out
}

// row is one job's line in the output: its spans, outcome and engine
// counters.
type row struct {
	Subject    string       `json:"subject"`
	Traced     bool         `json:"traced,omitempty"` // a job of the traced run
	Pass       int          `json:"pass"`
	Client     int          `json:"client"`
	ID         string       `json:"id"`
	HTTPStatus int          `json:"http_status"`
	State      string       `json:"state"`
	Attempts   int          `json:"attempts"`
	SubmitMS   float64      `json:"submit_ms"`
	QueueMS    float64      `json:"queue_ms"`
	RunMS      float64      `json:"run_ms"`
	LatencyMS  float64      `json:"latency_ms"`
	RefErr     string       `json:"reference_error,omitempty"`
	OracleErr  string       `json:"oracle_error,omitempty"`
	Stats      *engineStats `json:"stats,omitempty"`
}

func rowOf(r jobRecord, traced bool) row {
	out := row{
		Subject: r.Subject, Traced: traced, Pass: r.Pass, Client: r.Client, ID: r.View.ID,
		HTTPStatus: r.HTTPStatus, State: r.View.State, Attempts: r.View.Attempts,
		SubmitMS: r.SubmitMS, QueueMS: r.QueueMS, RunMS: r.RunMS, LatencyMS: r.LatencyMS,
		RefErr: r.RefErr, OracleErr: r.OracleErr,
	}
	if r.View.Result != nil {
		out.Stats = &r.View.Result.Stats
	}
	return out
}
