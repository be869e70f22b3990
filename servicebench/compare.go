package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare mode reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile(dir string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s/BENCHMARK.json: %w", dir, err)
	}
	return bf, nil
}

// comparePairs is how many A/B pairs compare mode runs per workload: the
// verdicts need at least ten runs a side.
const comparePairs = 10

// compareMain runs interleaved A/B pairs of untraced runs on two checkouts
// (A the parent, B the change), alternating which side runs first, and
// reports each side's median and quartiles per workload and metric with a
// verdict by the benchmark's bounds.
func compareMain(args []string) error {
	fset := flag.NewFlagSet("compare", flag.ContinueOnError)
	dirA := fset.String("a", "", "checkout of the parent commit")
	dirB := fset.String("b", "", "checkout of the change")
	wls := fset.String("workload", "", "comma-separated workloads (default: all)")
	seed := fset.Int64("seed", 1, "seed of the first pair; pair i uses seed+i")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if *dirA == "" || *dirB == "" {
		return errors.New("-a and -b are required")
	}
	bf, err := readBenchmarkFile(*dirA)
	if err != nil {
		return err
	}
	var names []string
	if *wls != "" {
		names = strings.Split(*wls, ",")
	} else {
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}
	var all []comparison
	for _, wl := range names {
		runs := map[string][]summary{}
		for i := 0; i < comparePairs; i++ {
			order := []string{*dirA, *dirB}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, dir := range order {
				s, err := runOnce(dir, wl, *seed+int64(i))
				if err != nil {
					return err
				}
				side := "A"
				if dir == *dirB {
					side = "B"
				}
				runs[side] = append(runs[side], s)
			}
		}
		for _, e := range bf.EndToEnd {
			c := compareMetric(wl, e.Name, e.Better, e.Bound, runs["A"], runs["B"])
			all = append(all, c)
			fmt.Printf("%-10s %-14s A %.4g [%.4g, %.4g]  B %.4g [%.4g, %.4g]  B wins %d/%d  %s\n",
				wl, e.Name, c.A.Median, c.A.Q1, c.A.Q3, c.B.Median, c.B.Q1, c.B.Q3, c.BWins, len(runs["A"]), c.Verdict)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{"compare": all})
}

// runOnce runs one untraced benchmark run in a checkout with the command
// its own BENCHMARK.json names.
func runOnce(dir, wl string, seed int64) (summary, error) {
	bf, err := readBenchmarkFile(dir)
	if err != nil {
		return summary{}, err
	}
	args := append(append([]string(nil), bf.Command[1:]...),
		"--workload", wl, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
	cmd := exec.Command(bf.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return summary{}, fmt.Errorf("%s: %s seed %d: %w", dir, wl, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var s summary
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return summary{}, fmt.Errorf("%s: %s seed %d: result line: %w", dir, wl, seed, err)
	}
	if !s.Correct {
		return summary{}, fmt.Errorf("%s: %s seed %d: incorrect result", dir, wl, seed)
	}
	return s, nil
}

type sideStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (Q3-Q1)/median
}

type comparison struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	A        sideStats `json:"a"`
	B        sideStats `json:"b"`
	// BWins counts pairs in which B read better than A; ties count for
	// neither side.
	BWins int `json:"b_wins"`
	// Verdict is "improved" (B won at least nine tenths of the pairs, the
	// medians differ by more than A's quartile distance, and B failed no
	// more jobs than A on the workload), "regressed"
	// (B's median worse than A's by more than the bound), "unresolved"
	// (a side's spread exceeds the bound and B does not read better on
	// every run, or B would have improved but failed more jobs than A),
	// or "unchanged".
	Verdict string `json:"verdict"`
}

func sideOf(runs []summary, name string) (sideStats, []float64) {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.Metrics[name].Value)
	}
	q1, med, q3 := quartiles(xs)
	return sideStats{Median: med, Q1: q1, Q3: q3, Spread: frac(q3-q1, med)}, xs
}

func compareMetric(wl, name, better string, bound float64, a, b []summary) comparison {
	c := comparison{Workload: wl, Metric: name}
	var xa, xb []float64
	c.A, xa = sideOf(a, name)
	c.B, xb = sideOf(b, name)
	sign := 1.0 // +1: lower is better
	if better == "higher" {
		sign = -1
	}
	for i := range xa {
		if i < len(xb) && sign*(xb[i]-xa[i]) < 0 {
			c.BWins++
		}
	}
	allBetter := true
	for _, va := range xa {
		for _, vb := range xb {
			if sign*(vb-va) >= 0 {
				allBetter = false
			}
		}
	}
	worse := sign * frac(c.B.Median-c.A.Median, c.A.Median)
	diff := c.B.Median - c.A.Median
	if diff < 0 {
		diff = -diff
	}
	gain := 10*c.BWins >= 9*len(xa) && diff > c.A.Q3-c.A.Q1
	switch {
	// A gain does not count when B fails more jobs than A.
	case gain && failedOf(b) > failedOf(a):
		c.Verdict = "unresolved"
	case gain:
		c.Verdict = "improved"
	case (c.A.Spread > bound || c.B.Spread > bound) && !allBetter:
		c.Verdict = "unresolved"
	case worse > bound:
		c.Verdict = "regressed"
	default:
		c.Verdict = "unchanged"
	}
	return c
}

// failedOf is the number of failed jobs over a side's runs.
func failedOf(runs []summary) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
	}
	return n
}
