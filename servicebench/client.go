package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// engineStats is the part of a job result's "stats" object the benchmark
// reads, decoded by its wire (JSON) names.
type engineStats struct {
	PInit, PFinal                               int64
	PoolInit, PoolFinal                         int
	PathsExplored, PathsSkipped                 int
	Refinements, Removals                       int
	SolverUnknowns                              int
	SolverQueries, CacheHits, CacheMisses       uint64
	EncodeCacheHits, EncodeCacheMisses          uint64
	Validations, ValidationFailures             uint64
	SatTime, LIATime, ValidateTime              int64 // nanoseconds
	ShardSteals, ShardDeaths, ShardHedges       uint64
	ShardImportedVerdicts, ShardRejectedImports uint64
}

type jobResult struct {
	TopPatches []string    `json:"top_patches"`
	Repaired   string      `json:"repaired"`
	Stats      engineStats `json:"stats"`
}

type jobView struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Attempts int        `json:"attempts"`
	Error    string     `json:"error"`
	Result   *jobResult `json:"result"`
}

func terminal(state string) bool {
	switch state {
	case "done", "cancelled", "dead-letter", "expired":
		return true
	}
	return false
}

// jobRecord is one job as the client saw it: the spans of its POST /jobs
// and /jobs/{id}/stream calls (all sharing the job id) and the final view.
type jobRecord struct {
	Subject string
	Pass    int
	Client  int
	// HTTPStatus is the POST /jobs status; anything but 202 is a refusal.
	HTTPStatus int
	View       jobView
	// Span boundaries, relative to the job's submit call.
	SubmitMS  float64 // POST round trip
	QueueMS   float64 // POST answered -> first "running" event
	RunMS     float64 // first "running" event -> terminal event
	LatencyMS float64 // submit -> terminal event
	// Check outcomes, filled after the timed window.
	RefErr    string
	OracleErr string
}

func (r *jobRecord) failed() bool {
	return r.HTTPStatus != http.StatusAccepted || r.View.State != "done" || r.RefErr != "" || r.OracleErr != ""
}

type schedItem struct {
	subject string
	pass    int
}

// drive runs the closed loop: each client submits its next job only after
// its previous one reached a terminal state. Jobs are handed out in
// schedule order.
func drive(ctx context.Context, base string, sched []schedItem, clients int) ([]jobRecord, error) {
	recs := make([]jobRecord, len(sched))
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	defer hc.CloseIdleConnections()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || ctx.Err() != nil {
					return
				}
				recs[i] = jobRecord{Subject: sched[i].subject, Pass: sched[i].pass, Client: c}
				if err := runJob(ctx, hc, base, tenant, &recs[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

func runJob(ctx context.Context, hc *http.Client, base, tenant string, rec *jobRecord) error {
	body, _ := json.Marshal(map[string]string{"subject": rec.Subject})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", tenant)
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("POST /jobs %s: %w", rec.Subject, err)
	}
	rec.HTTPStatus = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&rec.View)
	resp.Body.Close()
	tSubmit := time.Now()
	rec.SubmitMS = ms(tSubmit.Sub(t0))
	if rec.HTTPStatus != http.StatusAccepted {
		// Refused: counted as failed, with no latency of its own.
		rec.LatencyMS = rec.SubmitMS
		return nil
	}
	if err != nil {
		return fmt.Errorf("POST /jobs %s: decode: %w", rec.Subject, err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+rec.View.ID+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err = hc.Do(req)
	if err != nil {
		return fmt.Errorf("stream %s: %w", rec.View.ID, err)
	}
	defer resp.Body.Close()
	var tRun time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var v jobView
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return fmt.Errorf("stream %s: %w", rec.View.ID, err)
		}
		now := time.Now()
		if v.State == "running" && tRun.IsZero() {
			tRun = now
		}
		if terminal(v.State) {
			if tRun.IsZero() {
				tRun = tSubmit
			}
			rec.View = v
			rec.QueueMS = ms(tRun.Sub(tSubmit))
			rec.RunMS = ms(now.Sub(tRun))
			rec.LatencyMS = ms(now.Sub(t0))
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream %s: %w", rec.View.ID, err)
	}
	return fmt.Errorf("stream %s ended before a terminal state", rec.View.ID)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
