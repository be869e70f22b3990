package bench

import (
	"strings"
	"testing"
	"time"

	"cpr/internal/core"
	"cpr/internal/faultinject"
)

// TestSelfHealCountersReachTables proves the health plumbing end to end
// through the cpr-bench reporting path: with the solver forced to lie on
// every verdict, the per-subject stats must carry nonzero quarantine and
// fallback counters, the table summary must print the self-heal line, and
// the JSON rows must serialize the same numbers.
func TestSelfHealCountersReachTables(t *testing.T) {
	if testing.Short() {
		t.Skip("table run in -short mode")
	}
	faultinject.Activate(&faultinject.Plan{LieEvery: 1, LieKind: faultinject.SolverSpuriousUnsat})
	defer faultinject.Deactivate()

	opts := RunOptions{Budget: fastBudget}
	opts.Core.Workers = 1
	opts.Core.SMT.Paranoid = true

	s := Catalog(SuiteSVCOMP)[0]
	row := runCPR(s, opts)
	if row.Err != nil {
		t.Fatalf("%s under lying solver: %v", s.ID(), row.Err)
	}
	st := row.CPR
	if st.Validations == 0 || st.ValidationFailures == 0 {
		t.Fatalf("validation counters missing: %+v", st)
	}
	if st.Quarantines == 0 && st.FallbackSolves == 0 {
		t.Fatalf("ladder engaged but quarantine/fallback counters are zero: %+v", st)
	}

	out := solverSummary([]SubjectResult{row})
	if !strings.Contains(out, "self-heal:") {
		t.Errorf("table summary lacks the self-heal line:\n%s", out)
	}

	rows := JSONRows([]SubjectResult{row})
	if rows[0].Validations != st.Validations ||
		rows[0].Quarantines != st.Quarantines ||
		rows[0].FallbackSolves != st.FallbackSolves {
		t.Errorf("JSON row dropped health counters: %+v", rows[0])
	}
}

// TestSolverTimeLineReportsUnattributed: the summary names the wall time
// the solver phases do not cover as unattributed, with its share, rather
// than crediting it to any phase.
func TestSolverTimeLineReportsUnattributed(t *testing.T) {
	row := SubjectResult{
		Subject: Catalog(SuiteSVCOMP)[0],
		Wall:    10 * time.Second,
		CPR:     core.Stats{SatTime: 2 * time.Second, LIATime: time.Second, ValidateTime: time.Second},
	}
	out := solverSummary([]SubjectResult{row})
	want := "solver time: SAT 2s, LIA 1s, validation 1s; unattributed 6s (60.0% of wall)"
	if !strings.Contains(out, want) {
		t.Errorf("summary lacks %q:\n%s", want, out)
	}
}
