package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"

	"cpr/internal/bench"
	"cpr/internal/lang"
	"cpr/internal/lang/interp"
)

// fingerprint is the part of a job result that must not change while the
// engine's results are meant to be bit-identical: pool sizes, φE/φS,
// refinement and removal counts, and the ranked top patches.
type fingerprint struct {
	PInit       int64    `json:"p_init"`
	PFinal      int64    `json:"p_final"`
	PoolInit    int      `json:"pool_init"`
	PoolFinal   int      `json:"pool_final"`
	PhiE        int      `json:"phi_e"`
	PhiS        int      `json:"phi_s"`
	Refinements int      `json:"refinements"`
	Removals    int      `json:"removals"`
	TopPatches  []string `json:"top_patches"`
}

func fingerprintOf(r *jobResult) fingerprint {
	s := r.Stats
	return fingerprint{
		PInit: s.PInit, PFinal: s.PFinal, PoolInit: s.PoolInit, PoolFinal: s.PoolFinal,
		PhiE: s.PathsExplored, PhiS: s.PathsSkipped,
		Refinements: s.Refinements, Removals: s.Removals,
		TopPatches: r.TopPatches,
	}
}

// reference maps "Project/BugID" to the fingerprint recorded at the
// benchmark's seed commit.
type reference map[string]fingerprint

func loadReference(path string) (reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	return ref, nil
}

// writeReference records the fingerprint of every completed job into the
// reference file, keeping the entries of subjects this run did not visit.
// Jobs of one subject must agree with each other.
func writeReference(path string, recs []jobRecord) error {
	ref, err := loadReference(path)
	if errors.Is(err, fs.ErrNotExist) {
		ref, err = reference{}, nil
	}
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if r.View.State != "done" || r.View.Result == nil {
			return fmt.Errorf("record: %s ended %q (%s)", r.Subject, r.View.State, r.View.Error)
		}
		fp := fingerprintOf(r.View.Result)
		if seen[r.Subject] && !reflect.DeepEqual(ref[r.Subject], fp) {
			return fmt.Errorf("record: %s gave two different results", r.Subject)
		}
		ref[r.Subject], seen[r.Subject] = fp, true
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ref); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// checkReference compares a completed job with its committed reference.
func checkReference(ref reference, subject string, r *jobResult) error {
	want, ok := ref[subject]
	if !ok {
		return errors.New("no reference recorded")
	}
	got := fingerprintOf(r)
	if reflect.DeepEqual(got, want) {
		return nil
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	return fmt.Errorf("result %s differs from reference %s", g, w)
}

// oracle is the independent concrete check of a repair: the returned
// program, parsed afresh and run by the reference interpreter on every
// failing input of the subject, must neither crash nor fail an assertion.
func oracle(s *bench.Subject, repaired string) error {
	if repaired == "" {
		return errors.New("no repaired program returned")
	}
	prog, err := lang.Parse(repaired)
	if err != nil {
		return fmt.Errorf("repaired program does not parse: %v", err)
	}
	for _, in := range s.Failing {
		out := interp.Run(prog, in, interp.Options{})
		if out.Crashed() {
			return fmt.Errorf("failing input %v still fails: %v", in, out.Err)
		}
	}
	return nil
}
