package smt

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

// updateGolden rewrites testdata/golden_models.json from the current
// solver: go test ./internal/smt -run TestGoldenModels -update. Only do
// that for a change that is meant to alter models; every other change
// must leave the file untouched.
var updateGolden = flag.Bool("update", false, "rewrite the golden-model testdata from the current solver")

const goldenPath = "testdata/golden_models.json"

// goldenQuery is one corpus entry.
type goldenQuery struct {
	name   string
	f      *expr.Term
	bounds map[string]interval.Interval
}

// goldenRecord is the recorded answer to one corpus entry: the formula's
// printed form (so a drifting generator is caught, not mistaken for a
// drifting solver), the verdict, and the full model rendered with sorted
// keys.
type goldenRecord struct {
	Name    string `json:"name"`
	Formula string `json:"formula"`
	Status  string `json:"status"`
	Model   string `json:"model,omitempty"`
}

// goldenCorpus is the fixed query stream whose verdicts and models are
// pinned: the repair-shaped shared-prefix stream, seeded random formulas
// with div/rem/ite and boolean variables, and edge shapes (a single
// conjunct, a wide conjunction, trivially true and trivially false).
func goldenCorpus() []goldenQuery {
	var qs []goldenQuery
	for i, q := range sharedPrefixQueries() {
		qs = append(qs, goldenQuery{fmt.Sprintf("prefix/%02d", i), q.f, q.bounds})
	}

	r := rand.New(rand.NewSource(2021))
	small := map[string]interval.Interval{
		"x": interval.New(-6, 6),
		"y": interval.New(-6, 6),
		"z": interval.New(-20, 20),
	}
	wider := map[string]interval.Interval{
		"x": interval.New(-50, 50),
		"y": interval.New(-50, 50),
		"z": interval.New(-100, 100),
	}
	for i := 0; i < 80; i++ {
		bounds := small
		if i%2 == 1 {
			bounds = wider
		}
		qs = append(qs, goldenQuery{fmt.Sprintf("random/%02d", i), goldenRandFormula(r, 2), bounds})
	}

	x, y, z := expr.IntVar("x"), expr.IntVar("y"), expr.IntVar("z")
	p := expr.BoolVar("p")
	qs = append(qs,
		goldenQuery{"edge/single-conjunct", expr.Gt(expr.Add(x, y), expr.Int(7)), nil},
		goldenQuery{"edge/single-conjunct-bounded", expr.Le(expr.Mul(x, y), expr.Int(-5)), small},
		goldenQuery{"edge/true", expr.True(), nil},
		goldenQuery{"edge/true-bounded", expr.True(), small},
		goldenQuery{"edge/false", expr.False(), small},
		goldenQuery{"edge/simplifies-true", expr.Or(expr.Le(x, expr.Int(3)), expr.Gt(x, expr.Int(3))), nil},
		goldenQuery{"edge/simplifies-false", expr.And(expr.Le(x, expr.Int(3)), expr.Eq(expr.Add(x, x), expr.Int(7))), nil},
		goldenQuery{"edge/bool-only", expr.And(p, expr.Not(expr.BoolVar("q"))), nil},
		goldenQuery{"edge/div-by-var", expr.And(expr.Eq(expr.Div(z, y), expr.Int(3)), expr.Gt(y, expr.Int(1))), small},
	)
	var wide, wideUnsat []*expr.Term
	for k := int64(0); k < 48; k++ {
		v := expr.IntVar(fmt.Sprintf("w%d", k))
		wide = append(wide, expr.Ge(v, expr.Int(k-20)), expr.Le(expr.Add(v, x), expr.Int(k+30)))
	}
	wideUnsat = append(append(wideUnsat, wide...), expr.Lt(expr.IntVar("w7"), expr.Int(-14)))
	qs = append(qs,
		goldenQuery{"edge/wide", expr.And(wide...), nil},
		goldenQuery{"edge/wide-unsat", expr.And(wideUnsat...), nil},
	)
	return qs
}

// goldenRandFormula builds a random boolean formula over x, y, z and the
// boolean variables p, q, with div, rem, and integer and boolean ite.
func goldenRandFormula(r *rand.Rand, depth int) *expr.Term {
	if depth == 0 {
		if r.Intn(6) == 0 {
			return expr.BoolVar([]string{"p", "q"}[r.Intn(2)])
		}
		lhs := goldenRandInt(r, 2)
		c := expr.Int(int64(r.Intn(15) - 7))
		switch r.Intn(5) {
		case 0:
			return expr.Le(lhs, c)
		case 1:
			return expr.Gt(lhs, c)
		case 2:
			return expr.Eq(lhs, c)
		case 3:
			return expr.Ne(lhs, c)
		default:
			return expr.Ge(lhs, goldenRandInt(r, 1))
		}
	}
	a := goldenRandFormula(r, depth-1)
	b := goldenRandFormula(r, depth-1)
	switch r.Intn(7) {
	case 0, 1:
		return expr.And(a, b, goldenRandFormula(r, depth-1))
	case 2:
		return expr.Or(a, b)
	case 3:
		return expr.Not(a)
	case 4:
		return expr.Implies(a, b)
	case 5:
		return expr.Ite(goldenRandFormula(r, 0), a, b)
	default:
		return expr.Eq(a, b)
	}
}

func goldenRandInt(r *rand.Rand, depth int) *expr.Term {
	vars := []*expr.Term{expr.IntVar("x"), expr.IntVar("y"), expr.IntVar("z")}
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(4) == 0 {
			return expr.Int(int64(r.Intn(9) - 4))
		}
		return vars[r.Intn(len(vars))]
	}
	a, b := goldenRandInt(r, depth-1), goldenRandInt(r, depth-1)
	switch r.Intn(7) {
	case 0:
		return expr.Add(a, b)
	case 1:
		return expr.Sub(a, b)
	case 2:
		return expr.Mul(expr.Int(int64(r.Intn(5)-2)), a)
	case 3: // div and rem over leaves: nested chains blow up the theory loop
		return expr.Div(vars[r.Intn(len(vars))], expr.Int(int64(r.Intn(4)+2)))
	case 4:
		return expr.Rem(vars[r.Intn(len(vars))], vars[r.Intn(len(vars))])
	case 5:
		return expr.Ite(goldenRandFormula(r, 0), a, b)
	default: // nonlinear, but a monomial: the theory takes var·var
		return expr.Mul(vars[r.Intn(len(vars))], vars[r.Intn(len(vars))])
	}
}

func renderModel(m expr.Model) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, m[n])
	}
	return b.String()
}

func goldenAnswer(t *testing.T, s *Solver, q goldenQuery) goldenRecord {
	t.Helper()
	res, err := s.Check(q.f, q.bounds)
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatalf("%s: %v (formula %v)", q.name, err, q.f)
	}
	rec := goldenRecord{Name: q.name, Formula: q.f.String(), Status: res.Status.String()}
	if res.Status == Sat {
		rec.Model = renderModel(res.Model)
	}
	return rec
}

// TestGoldenModels pins the solver's verdicts and full models on a fixed
// corpus. Models must not drift: the repair loop's refined regions are
// built from them, so a changed model changes repair results. Each query
// is answered twice — by one solver that serves the whole stream in
// order, and by a fresh solver — and both must match the recording, so
// state a solver carries between queries cannot leak into an answer.
func TestGoldenModels(t *testing.T) {
	corpus := goldenCorpus()
	// A few random formulas defeat the theory loop (weak blocking lemmas
	// over div/rem); a small round budget pins them as unknown quickly.
	opts := Options{MaxTheoryRounds: 400}
	long := NewSolver(opts)
	got := make([]goldenRecord, len(corpus))
	for i, q := range corpus {
		got[i] = goldenAnswer(t, long, q)
		if fresh := goldenAnswer(t, NewSolver(opts), q); fresh != got[i] {
			t.Errorf("%s: long-lived solver answered %+v, fresh solver %+v", q.name, got[i], fresh)
		}
		st, err := long.Decide(q.f, q.bounds)
		if (err != nil && !errors.Is(err, ErrBudget)) || st.String() != got[i].Status {
			t.Errorf("%s: Decide = %v, %v; Check = %s", q.name, st, err, got[i].Status)
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Fatalf("corpus has %d queries, recording %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %d drifted:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// readGolden returns the recorded answers to the golden corpus.
func readGolden(t *testing.T) []goldenRecord {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	return want
}
