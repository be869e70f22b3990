package bench

import (
	"sync"
	"testing"

	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/lang"
	"cpr/internal/lang/interp"
	"cpr/internal/smt"
	"cpr/internal/synth"
)

func allSubjects() []*Subject {
	var out []*Subject
	for _, suite := range []string{SuiteExtractFix, SuiteManyBugs, SuiteSVCOMP} {
		out = append(out, Catalog(suite)...)
	}
	return out
}

func TestCatalogSizes(t *testing.T) {
	if n := len(Catalog(SuiteExtractFix)); n != 30 {
		t.Errorf("extractfix subjects: %d, want 30", n)
	}
	if n := len(Catalog(SuiteManyBugs)); n != 5 {
		t.Errorf("manybugs subjects: %d, want 5", n)
	}
	if n := len(Catalog(SuiteSVCOMP)); n != 10 {
		t.Errorf("svcomp subjects: %d, want 10", n)
	}
	if Catalog("nonsense") != nil {
		t.Error("unknown suite should be nil")
	}
}

func TestFind(t *testing.T) {
	if s := Find("Jasper", "CVE-2016-8691"); s == nil || s.Suite != SuiteExtractFix {
		t.Fatalf("Find failed: %+v", s)
	}
	if Find("Nope", "x") != nil {
		t.Fatal("Find should return nil for unknown subjects")
	}
}

// TestSubjectsWellFormed checks that every runnable subject parses, has a
// hole and a bug marker, has parseable spec and developer patch of the
// right sort, and that the synthesizer's template pool contains the
// developer patch's shape (via the job assembling without error).
func TestSubjectsWellFormed(t *testing.T) {
	for _, s := range allSubjects() {
		s := s
		t.Run(s.ID(), func(t *testing.T) {
			if s.Unsupported != "" {
				if s.Paper.PInit != "N/A" {
					t.Errorf("unsupported subject should report N/A")
				}
				return
			}
			prog, err := s.Program()
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if prog.HolePos == nil {
				t.Fatal("no __HOLE__")
			}
			if len(prog.BugPositions) == 0 {
				t.Fatal("no __BUG__ marker")
			}
			spec, err := s.Spec()
			if err != nil {
				t.Fatalf("spec: %v", err)
			}
			if spec.Sort != expr.SortBool {
				t.Fatalf("spec has sort %v", spec.Sort)
			}
			dev, err := s.DevPatchTerm()
			if err != nil {
				t.Fatalf("dev patch: %v", err)
			}
			wantSort := expr.SortBool
			if prog.HoleType == lang.TypeInt {
				wantSort = expr.SortInt
			}
			if dev.Sort != wantSort {
				t.Fatalf("dev patch sort %v, hole type %v", dev.Sort, prog.HoleType)
			}
			if len(s.Failing) == 0 {
				t.Fatal("no failing input")
			}
			if _, err := s.Job(core.Budget{}); err != nil {
				t.Fatalf("job: %v", err)
			}
		})
	}
}

// TestDeveloperPatchRepairsFailingInput: running the program with the
// developer patch on the failing input must terminate without a crash.
func TestDeveloperPatchRepairsFailingInput(t *testing.T) {
	for _, s := range allSubjects() {
		s := s
		t.Run(s.ID(), func(t *testing.T) {
			if s.Unsupported != "" {
				return
			}
			prog, _ := s.Program()
			dev, _ := s.DevPatchTerm()
			for _, fi := range s.Failing {
				out := interp.Run(prog, fi, interp.Options{Hole: dev})
				if out.Crashed() {
					t.Fatalf("developer patch crashes on failing input %v: %v", fi, out.Err)
				}
				if out.Err != nil && out.Err.Kind != interp.ErrAssumeViolated {
					t.Fatalf("developer patch errors on %v: %v", fi, out.Err)
				}
			}
		})
	}
}

// TestDeveloperPatchInSynthesisSpace: the synthesizer's pool must contain
// a template covering the developer patch (the paper's assumption in §7).
func TestDeveloperPatchInSynthesisSpace(t *testing.T) {
	solver := smt.NewSolver(smt.Options{})
	for _, s := range allSubjects() {
		s := s
		t.Run(s.ID(), func(t *testing.T) {
			if s.Unsupported != "" {
				return
			}
			prog, _ := s.Program()
			comp, err := s.Components()
			if err != nil {
				t.Fatal(err)
			}
			dev, _ := s.DevPatchTerm()
			templates := synth.Synthesize(comp, prog.HoleType)
			pool := synth.BuildPool(templates, comp)
			job, _ := s.Job(core.Budget{})
			rank, found := core.CorrectPatchRank(solver, pool.Patches, dev, job.InputBounds)
			if !found {
				for i, p := range pool.Patches {
					if i < 20 {
						t.Logf("template %d: %v", i, p.Expr)
					}
				}
				t.Fatalf("developer patch %v not covered by the %d-template pool", dev, pool.Size())
			}
			_ = rank
		})
	}
}

// TestSubjectJobConcurrent builds one subject's job from two goroutines at
// once, the way cprd's concurrent POST /jobs handlers do. The subject is
// fresh, so both calls race to parse its program; under -race this fails
// unless the parse cache is synchronized.
func TestSubjectJobConcurrent(t *testing.T) {
	s := &Subject{
		Project: "test", BugID: "concurrent-job", Suite: SuiteSVCOMP,
		Source: `
void main(int x, int y) {
    if (__HOLE__) {
        return;
    }
    __BUG__;
    int c = 100 / x;
}`,
		SpecSrc: "(distinct x 0)",
		Failing: []map[string]int64{{"x": 0, "y": 1}},
	}
	var wg sync.WaitGroup
	jobs := make([]core.Job, 2)
	errs := make([]error, 2)
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs[i], errs[i] = s.Job(core.Budget{})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if jobs[0].Program != jobs[1].Program {
		t.Fatal("concurrent Job calls parsed the program twice")
	}
}
