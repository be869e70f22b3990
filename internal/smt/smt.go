// Package smt decides satisfiability of quantifier-free formulas over
// booleans and bounded integers, and produces models. It is the solver the
// repair system runs every query through: path constraints, patch
// formulas, parameter boxes, and specifications.
//
// Architecture (lazy DPLL(T)):
//
//  1. simplify the formula (canonical linear atoms, package expr),
//  2. purify: eliminate integer ite, div, and rem by fresh variables with
//     guarded defining constraints,
//  3. Tseitin-encode the boolean skeleton over theory atoms,
//  4. CDCL search (package sat) proposes a skeleton model,
//  5. the conjunction of asserted theory literals goes to the LIA
//     procedure (package lia); theory conflicts come back as blocking
//     clauses until the loop converges.
//
// Every integer variable is bounded; DefaultBounds (32-bit by default)
// applies to variables without explicit bounds, mirroring the C int
// semantics of the subject programs.
//
// Every query is solved from scratch, which is what makes answers
// deterministic: a query's verdict and model depend on the query alone,
// never on what the solver answered before. The repair loop sends each job
// thousands of small, independent queries, so the fixed cost per query is
// what matters: the front-end works on the query's top-level conjunct
// list without interning a query-wide conjunction, and a Solver reuses one
// encoder and one CDCL instance (reset, not reallocated) across queries.
// The front-end's pure per-term work — simplification and the translation
// of theory atoms into LIA constraints — is memoized for the solver's
// lifetime, since successive queries share nearly all of their terms.
package smt

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"cpr/internal/cancel"
	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/smt/cache"
	"cpr/internal/smt/guard"
	"cpr/internal/smt/lia"
	"cpr/internal/smt/sat"
)

// Int32Bounds is the default domain of integer variables: 32-bit C int.
var Int32Bounds = interval.New(-2147483648, 2147483647)

// Status is the solver verdict.
type Status int8

// Verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Result carries a verdict and, when Sat, a model covering the formula's
// variables and every variable with explicit bounds.
type Result struct {
	Status Status
	Model  expr.Model
}

// Options configures a Solver.
type Options struct {
	// DefaultBounds is the domain for integer variables with no explicit
	// bounds. Zero value means Int32Bounds.
	DefaultBounds interval.Interval
	// LIA tunes the arithmetic procedure.
	LIA lia.Options
	// MaxTheoryRounds bounds skeleton/theory iterations (default 10000).
	MaxTheoryRounds int
	// MaxConflicts bounds SAT conflicts per query (0 = unbounded).
	MaxConflicts uint64
	// MaxQueryDuration bounds the wall-clock time of a single query
	// (0 = unbounded). An expired query returns Unknown with a
	// *BudgetError, never a wrong verdict.
	MaxQueryDuration time.Duration
	// Cancel, when non-nil, aborts in-flight queries once it expires
	// (deadline or explicit cancellation). The repair engine installs its
	// run-level token here so solver work stops with the run.
	Cancel *cancel.Token
	// Cache, when non-nil, memoizes decisive verdicts (and sat models)
	// across queries. A cache may be shared by any number of solvers;
	// hits return exactly what re-solving would, so sharing does not
	// change results, only speed.
	Cache *cache.Cache
	// Paranoid forces 100% verdict validation in the guard layer: every
	// unsat answer is cross-checked by an independent scratch solve (sat
	// models are replayed on every answer regardless). Equivalent to
	// Guard.Paranoid; the CPR_PARANOID environment variable forces it
	// process-wide.
	Paranoid bool
	// Guard tunes the validation layer (unsat cross-check sampling rate).
	// The zero value gets production defaults.
	Guard guard.Config
}

func (o Options) withDefaults() Options {
	if o.DefaultBounds == (interval.Interval{}) {
		o.DefaultBounds = Int32Bounds
	}
	if o.MaxTheoryRounds == 0 {
		o.MaxTheoryRounds = 10000
	}
	return o
}

// Stats accumulates query counts across a Solver's lifetime.
type Stats struct {
	Queries      uint64
	TheoryRounds uint64
	SatAnswers   uint64
	UnsatAnswers uint64
	// Unknowns counts queries that exhausted a budget or deadline;
	// Panics counts queries that panicked and were recovered at the Check
	// boundary. Both degrade to Unknown answers.
	Unknowns uint64
	Panics   uint64
	// CacheHits/CacheMisses count verdict-cache traffic from this solver's
	// queries (zero when Options.Cache is nil). Hits are included in
	// Queries and in Sat/UnsatAnswers.
	CacheHits   uint64
	CacheMisses uint64
	// ClausesLearned/ClausesDeleted count CDCL clause learning and
	// activity-driven deletion.
	ClausesLearned uint64
	ClausesDeleted uint64
	// Wall-time breakdown of solver work: SatTime is spent in CDCL
	// search, LIATime in the arithmetic procedure, ValidateTime in verdict
	// validation (model replays and sampled unsat cross-checks, including
	// the trusted re-solves they trigger). Aggregated race-free from
	// atomic nanosecond counters.
	SatTime      time.Duration
	LIATime      time.Duration
	ValidateTime time.Duration
	// Self-healing health counters (package guard). Validations counts
	// verdict validations run (model replays + unsat cross-checks);
	// ValidationFailures counts verdicts they rejected — each such verdict
	// was replaced by a lower-rung solve or degraded to Unknown, never
	// returned. Quarantines counts poisoned cache entries pulled and
	// reused-storage quarantines, and FallbackSolves queries served below
	// their natural tier.
	Validations        uint64
	ValidationFailures uint64
	Quarantines        uint64
	FallbackSolves     uint64
}

// Add returns the fieldwise sum of two stats snapshots — the aggregate of
// several solvers (e.g. one per worker) is itself a Stats.
func (a Stats) Add(b Stats) Stats {
	a.Queries += b.Queries
	a.TheoryRounds += b.TheoryRounds
	a.SatAnswers += b.SatAnswers
	a.UnsatAnswers += b.UnsatAnswers
	a.Unknowns += b.Unknowns
	a.Panics += b.Panics
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.ClausesLearned += b.ClausesLearned
	a.ClausesDeleted += b.ClausesDeleted
	a.SatTime += b.SatTime
	a.LIATime += b.LIATime
	a.ValidateTime += b.ValidateTime
	a.Validations += b.Validations
	a.ValidationFailures += b.ValidationFailures
	a.Quarantines += b.Quarantines
	a.FallbackSolves += b.FallbackSolves
	return a
}

// solverStats is the live, atomically-updated form of Stats, so Stats()
// snapshots are race-free even while another goroutine is mid-query.
type solverStats struct {
	queries      atomic.Uint64
	theoryRounds atomic.Uint64
	satAnswers   atomic.Uint64
	unsatAnswers atomic.Uint64
	unknowns     atomic.Uint64
	panics       atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64

	clausesLearned atomic.Uint64
	clausesDeleted atomic.Uint64

	satNanos      atomic.Int64
	liaNanos      atomic.Int64
	validateNanos atomic.Int64
}

// timeSat/timeLIA/timeValidate fold an elapsed interval into the wall-time
// breakdown counters.
func (st *solverStats) timeSat(from time.Time)      { st.satNanos.Add(int64(time.Since(from))) }
func (st *solverStats) timeLIA(from time.Time)      { st.liaNanos.Add(int64(time.Since(from))) }
func (st *solverStats) timeValidate(from time.Time) { st.validateNanos.Add(int64(time.Since(from))) }

// Solver answers satisfiability queries. The zero value is not usable;
// construct with NewSolver. A Solver is not safe for concurrent Check
// calls, but Stats() may be called from any goroutine at any time.
type Solver struct {
	opts  Options
	stats solverStats
	// enc is the encoder and CDCL instance every query of this solver
	// reuses, and box the theory loop's bounds environment; pur and the
	// slices below are the rest of the per-query storage. check resets
	// them all before each query. memo (term → simplified term) and
	// atomCons (theory literal → LIA constraint) hold pure functions of
	// interned terms, so they carry over from query to query, each
	// replaced by a fresh map once it passes its cap. A recovered panic
	// drops enc and both tables, since any of them may be mid-mutation;
	// while the guard has the reused-storage rung quarantined, every query
	// gets a fresh enc, box, and tables.
	enc      *encoder
	box      *lia.Box
	pur      purifier
	memo     map[*expr.Term]*expr.Term
	atomCons map[suppLit]lia.Constraint
	conj     []*expr.Term
	tmp      []*expr.Term
	vars     []*expr.Term
	varSet   map[*expr.Term]bool
	// guard validates verdicts and drives the degradation ladder; see
	// package guard. Every solver has one (the overhead of validation is
	// one model replay per sat answer plus sampled unsat cross-checks).
	guard *guard.Guard
	// scratch is the trusted child solver the ladder's lower rungs run on:
	// no cache, no fault injection, no guard — the reference
	// implementation the answers are checked against. Created lazily on
	// the first cross-check or fallback.
	scratch *Solver
	// trusted marks the scratch child itself: its verdicts are served
	// without lie injection or validation (it IS the validator).
	trusted bool
	// journal records the cache keys this solver stored during the current
	// epoch (see BeginEpoch); on a panic or budget abort the journaled
	// entries are invalidated — a corrupted worker must not leave verdicts
	// behind in shared state.
	journal []cache.Key
}

// maxMemoEntries and maxAtomCons cap the solver-lifetime tables: a table
// that has grown past its cap is replaced by an empty one before the next
// query, so a long-lived solver's memory stays bounded whatever it sees.
const (
	maxMemoEntries = 1 << 16
	maxAtomCons    = 1 << 14
)

// maxJournal caps epoch journals; an epoch that overflows it simply stops
// recording (invalidation-on-abort is best-effort hygiene, not soundness —
// entries are validated before every store).
const maxJournal = 8192

// NewSolver returns a Solver with the given options.
func NewSolver(opts Options) *Solver {
	opts = opts.withDefaults()
	gcfg := opts.Guard
	gcfg.Paranoid = gcfg.Paranoid || opts.Paranoid
	return &Solver{opts: opts, guard: guard.New(gcfg)}
}

// Stats returns a consistent snapshot of the accumulated counters. It is
// safe to call concurrently with queries on this solver.
func (s *Solver) Stats() Stats {
	gc := s.guard.Counters()
	return Stats{
		Queries:      s.stats.queries.Load(),
		TheoryRounds: s.stats.theoryRounds.Load(),
		SatAnswers:   s.stats.satAnswers.Load(),
		UnsatAnswers: s.stats.unsatAnswers.Load(),
		Unknowns:     s.stats.unknowns.Load(),
		Panics:       s.stats.panics.Load(),
		CacheHits:    s.stats.cacheHits.Load(),
		CacheMisses:  s.stats.cacheMisses.Load(),

		ClausesLearned: s.stats.clausesLearned.Load(),
		ClausesDeleted: s.stats.clausesDeleted.Load(),

		SatTime:      time.Duration(s.stats.satNanos.Load()),
		LIATime:      time.Duration(s.stats.liaNanos.Load()),
		ValidateTime: time.Duration(s.stats.validateNanos.Load()),

		Validations:        gc.Validations,
		ValidationFailures: gc.ValidationFailures,
		Quarantines:        gc.Quarantines,
		FallbackSolves:     gc.FallbackSolves,
	}
}

// CrossCheckCursor exposes the guard's unsat cross-check sampling position
// for checkpointing; SetCrossCheckCursor restores it on resume, so the
// resumed run's validation accounting continues the killed run's sampling
// schedule instead of restarting it. Verdicts are unaffected either way —
// cross-checks only detect lies, they never change an answer.
func (s *Solver) CrossCheckCursor() uint64 { return s.guard.CrossCheckCursor() }

// SetCrossCheckCursor restores a cursor captured by CrossCheckCursor.
func (s *Solver) SetCrossCheckCursor(n uint64) { s.guard.SetCrossCheckCursor(n) }

// ErrBudget is returned when a resource limit is exceeded. Budget errors
// produced by Check are *BudgetError values wrapping this sentinel, so
// errors.Is(err, ErrBudget) keeps working while the error text carries the
// originating query's context.
var ErrBudget = errors.New("smt: resource budget exhausted")

// ErrSolverPanic wraps a panic recovered at the Check boundary: the query
// degrades to an Unknown answer instead of killing the process.
var ErrSolverPanic = errors.New("smt: solver panicked")

// BudgetError wraps ErrBudget with the originating query's context so
// exhaustion is diagnosable: which stage gave up and how much work the
// query had done when it did.
type BudgetError struct {
	// Stage is where the budget ran out: "sat-conflicts", "lia",
	// "theory-rounds", "deadline", or "fault-injection".
	Stage string
	// Query is the solver-lifetime query number (1-based).
	Query uint64
	// TheoryRounds is the number of skeleton/theory rounds completed by
	// this query.
	TheoryRounds int
	// Conflicts is the SAT conflict count this query spent.
	Conflicts uint64
	// Clauses is the clause count of the encoded skeleton; Atoms is the
	// number of distinct theory atoms. Zero when exhaustion happened
	// before encoding.
	Clauses, Atoms int
	// Detail carries the underlying cause (e.g. the lia error); may be nil.
	Detail error
}

func (e *BudgetError) Error() string {
	msg := fmt.Sprintf("%v (stage=%s query=%d rounds=%d conflicts=%d clauses=%d atoms=%d)",
		ErrBudget, e.Stage, e.Query, e.TheoryRounds, e.Conflicts, e.Clauses, e.Atoms)
	if e.Detail != nil {
		msg += ": " + e.Detail.Error()
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrBudget) hold for budget errors.
func (e *BudgetError) Unwrap() error { return ErrBudget }

const auxPrefix = "!aux"

// Check decides f. Explicit variable bounds may be supplied (nil is fine);
// unbounded integer variables get DefaultBounds. The model covers the
// formula's variables plus all variables in bounds.
//
// Check never propagates a panic and never exceeds its budgets by more
// than a polling interval: resource exhaustion (MaxConflicts, LIA budget,
// MaxTheoryRounds, MaxQueryDuration, an expired Cancel token) yields
// Unknown with a *BudgetError, and a panic anywhere below this boundary
// yields Unknown with an error wrapping ErrSolverPanic.
func (s *Solver) Check(f *expr.Term, bounds map[string]interval.Interval) (Result, error) {
	return s.solve(f, bounds, true)
}

// Decide returns the verdict for f. It runs exactly Check's solve — the
// model is still built and replayed by the guard — but looks up and
// stores verdict-only cache entries, so a feasibility check never copies
// a model into the cache. The repair loop's feasibility checks (IsSat,
// Valid) ride on it.
func (s *Solver) Decide(f *expr.Term, bounds map[string]interval.Interval) (Status, error) {
	res, err := s.solve(f, bounds, false)
	return res.Status, err
}

// solve is Check (wantModel) and Decide (!wantModel).
func (s *Solver) solve(f *expr.Term, bounds map[string]interval.Interval, wantModel bool) (res Result, err error) {
	if f.Sort != expr.SortBool {
		return Result{}, fmt.Errorf("smt: Check: formula has sort %v, want Bool", f.Sort)
	}
	query := s.stats.queries.Add(1)
	// Registered before the recover defer (so it runs after err is set):
	// an aborted query's worker may have been corrupted mid-epoch, so its
	// epoch's cache writes are withdrawn.
	defer func() {
		if err != nil && (errors.Is(err, ErrBudget) || errors.Is(err, ErrSolverPanic)) {
			s.abortEpoch()
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			// A panic may have interrupted an encoder, clause-database, or
			// table mutation: drop the reused storage, the next query
			// rebuilds it.
			s.enc, s.memo, s.atomCons = nil, nil, nil
			s.stats.panics.Add(1)
			s.stats.unknowns.Add(1)
			res = Result{Status: Unknown}
			err = fmt.Errorf("%w: %v", ErrSolverPanic, r)
		}
	}()
	if !s.trusted {
		switch faultinject.SolverQuery() {
		case faultinject.SolverPanic:
			panic(faultinject.PanicMsg)
		case faultinject.SolverTimeout:
			s.stats.unknowns.Add(1)
			return Result{Status: Unknown}, &BudgetError{Stage: "fault-injection", Query: query}
		case faultinject.SolverFail:
			return Result{}, faultinject.ErrInjected
		}
	}
	if hit, ok := s.lookup(f, bounds, wantModel); ok {
		return hit, nil
	}
	qtok := s.opts.Cancel
	if s.opts.MaxQueryDuration > 0 {
		qtok = cancel.WithTimeout(qtok, s.opts.MaxQueryDuration)
	}
	res, err = s.check(f, bounds, qtok, query)
	if err != nil || res.Status == Unknown {
		return res, err
	}
	if !s.trusted {
		res, err = s.vet(f, bounds, res)
	}
	return s.finish(f, bounds, res, err, wantModel)
}

// lookup answers a query from the cache. Check needs a model, so only
// entries carrying one serve it, and their models are replayed first;
// Decide takes any entry.
func (s *Solver) lookup(f *expr.Term, bounds map[string]interval.Interval, wantModel bool) (Result, bool) {
	c := s.opts.Cache
	if c == nil {
		return Result{}, false
	}
	if !wantModel {
		isSat, ok := c.LookupVerdict(f, bounds, s.opts.DefaultBounds)
		if !ok {
			s.stats.cacheMisses.Add(1)
			return Result{}, false
		}
		s.stats.cacheHits.Add(1)
		if isSat {
			s.stats.satAnswers.Add(1)
			return Result{Status: Sat}, true
		}
		s.stats.unsatAnswers.Add(1)
		return Result{Status: Unsat}, true
	}
	v, ok := c.Lookup(f, bounds, s.opts.DefaultBounds)
	if !ok {
		s.stats.cacheMisses.Add(1)
		return Result{}, false
	}
	if v.Sat && !s.validateModel(f, bounds, v.Model) {
		// Poisoned entry: quarantine it (pull the entry and any
		// subsumption core it contributed) and fall through to re-solve
		// one rung down.
		c.Invalidate(f, bounds, s.opts.DefaultBounds)
		s.guard.NoteQuarantine()
		s.guard.NoteFallback()
		s.stats.cacheMisses.Add(1)
		return Result{}, false
	}
	s.stats.cacheHits.Add(1)
	if v.Sat {
		s.stats.satAnswers.Add(1)
		return Result{Status: Sat, Model: v.Model}, true
	}
	s.stats.unsatAnswers.Add(1)
	return Result{Status: Unsat}, true
}

// finish counts and caches a settled decisive verdict. Every verdict that
// reaches it has either been validated or comes from the trusted rung.
// Without wantModel the model has served its purpose (the guard replayed
// it) and is dropped: the cache entry is verdict-only.
func (s *Solver) finish(f *expr.Term, bounds map[string]interval.Interval, res Result, err error, wantModel bool) (Result, error) {
	switch res.Status {
	case Sat:
		s.stats.satAnswers.Add(1)
	case Unsat:
		s.stats.unsatAnswers.Add(1)
	}
	if !wantModel {
		res.Model = nil
	}
	if err == nil && s.opts.Cache != nil && res.Status != Unknown {
		// Only decisive verdicts are cacheable: Unknown reflects a budget,
		// not the query.
		s.storeValue(f, bounds, cache.Value{Sat: res.Status == Sat, Model: res.Model})
	}
	return res, err
}

// vet applies adversarial lie injection (test hook) and then the guard's
// verdict validation to a freshly produced verdict, degrading down the
// ladder until an answer validates: solve → cache-bypass trusted solve →
// Unknown. A rejected verdict also quarantines the reused storage it was
// produced on. The invariant: a verdict that fails validation is never
// returned.
func (s *Solver) vet(f *expr.Term, bounds map[string]interval.Interval, res Result) (Result, error) {
	res = s.applyLieResult(res)
	switch res.Status {
	case Sat:
		if s.validateModel(f, bounds, res.Model) {
			return res, nil
		}
		s.guard.QuarantineRung()
		// Bottom rung: cache-bypass solve on the trusted scratch solver.
		s.guard.NoteFallback()
		tres, terr := s.trustedScratch().Check(f, bounds)
		if terr != nil || tres.Status == Unknown {
			s.stats.unknowns.Add(1)
			return Result{Status: Unknown}, fmt.Errorf("%w (trusted re-solve: %v)", guard.ErrVerdictRejected, terr)
		}
		if tres.Status == Sat && !s.validateModel(f, bounds, tres.Model) {
			// Even the reference solver's model fails replay: a genuine
			// solver bug. Nothing left to fall back to — degrade to Unknown
			// rather than expose a wrong answer.
			s.stats.unknowns.Add(1)
			return Result{Status: Unknown}, guard.ErrVerdictRejected
		}
		return tres, nil
	case Unsat:
		if ok, tres := s.verifyUnsat(f, bounds); !ok {
			s.guard.QuarantineRung()
			s.guard.NoteFallback()
			return tres, nil
		}
	}
	return res, nil
}

// validateModel times a guard model replay into the validation wall-time
// counter.
func (s *Solver) validateModel(f *expr.Term, bounds map[string]interval.Interval, m expr.Model) bool {
	start := time.Now()
	ok := s.guard.ValidateModel(f, bounds, s.opts.DefaultBounds, m)
	s.stats.timeValidate(start)
	return ok
}

// verifyUnsat cross-checks a sampled unsat verdict against the trusted
// scratch solver. It returns ok=false with the trusted result when the
// verdict diverged.
func (s *Solver) verifyUnsat(f *expr.Term, bounds map[string]interval.Interval) (bool, Result) {
	if !s.guard.ShouldCrossCheck() {
		return true, Result{}
	}
	start := time.Now()
	defer s.stats.timeValidate(start)
	s.guard.NoteCrossCheck()
	tres, terr := s.trustedScratch().Check(f, bounds)
	if terr != nil || tres.Status == Unknown {
		return true, Result{} // inconclusive: budgets ran out re-solving
	}
	if tres.Status == Sat {
		s.guard.NoteFailure()
		return false, tres
	}
	return true, Result{}
}

// trustedScratch returns the child solver the ladder's trusted rungs run
// on, creating it on first use. It shares budgets and the cancel token but
// has no cache, no fault injection, and no guard of its own.
func (s *Solver) trustedScratch() *Solver {
	if s.scratch == nil {
		o := s.opts
		o.Cache = nil
		s.scratch = NewSolver(o)
		s.scratch.trusted = true
	}
	return s.scratch
}

// applyLieResult is the adversarial-fault hook for solver results (see
// faultinject.SolverLie). No-op outside tests.
func (s *Solver) applyLieResult(res Result) Result {
	if res.Status == Unknown {
		return res
	}
	switch faultinject.SolverLie() {
	case faultinject.SolverFlipModel:
		if res.Status == Sat && len(res.Model) > 0 {
			names := make([]string, 0, len(res.Model))
			for name := range res.Model {
				names = append(names, name)
			}
			sort.Strings(names)
			res.Model[names[0]] ^= 1 << 40
		}
	case faultinject.SolverSpuriousUnsat:
		if res.Status == Sat {
			return Result{Status: Unsat}
		}
	}
	return res
}

// BeginEpoch marks an iteration boundary for cache-write journaling: the
// repair engine calls it before each unit of work so that an abort (panic
// or budget exhaustion) can withdraw exactly the entries that unit wrote.
func (s *Solver) BeginEpoch() {
	s.journal = s.journal[:0]
}

// abortEpoch invalidates every cache entry stored since BeginEpoch.
func (s *Solver) abortEpoch() {
	if c := s.opts.Cache; c != nil {
		for _, k := range s.journal {
			c.InvalidateKey(k)
		}
	}
	s.journal = s.journal[:0]
}

// storeValue stores a decisive verdict and journals the write.
func (s *Solver) storeValue(f *expr.Term, bounds map[string]interval.Interval, v cache.Value) {
	c := s.opts.Cache
	if c == nil {
		return
	}
	c.Store(f, bounds, s.opts.DefaultBounds, v)
	if len(s.journal) < maxJournal {
		s.journal = append(s.journal, cache.KeyOf(f, bounds, s.opts.DefaultBounds))
	}
}

// prepare readies the solver-lifetime tables for a query, replacing each
// that has passed its cap. After a panic, and while the guard has the
// reused-storage rung quarantined, the tables are built fresh, and prepare
// reports that the encoder and box must be too.
func (s *Solver) prepare() (fresh bool) {
	if s.enc == nil || !s.guard.RungAvailable() {
		s.memo = make(map[*expr.Term]*expr.Term)
		s.atomCons = make(map[suppLit]lia.Constraint)
		return true
	}
	if len(s.memo) > maxMemoEntries {
		s.memo = make(map[*expr.Term]*expr.Term)
	}
	if len(s.atomCons) > maxAtomCons {
		s.atomCons = make(map[suppLit]lia.Constraint)
	}
	return false
}

// frontEnd runs simplify → purify → re-simplify over f's top-level
// conjunct list. It returns the list expr.AndArgs would give for the
// formula the three whole-query passes produce — same conjuncts, same
// order, same auxiliary variables — without interning that query-wide
// conjunction: an empty list is true, [false] is false. The list aliases
// the solver's storage and lives until the next query.
//
// Both simplification passes share the solver-lifetime memo. The
// re-simplify pass sees purified terms, whose auxiliary variables are
// named by their order of appearance in the query, but its results are
// still pure functions of those terms, so they stay valid in any later
// query.
func (s *Solver) frontEnd(f *expr.Term) []*expr.Term {
	top := []*expr.Term{f}
	if f.Op == expr.OpAnd {
		top = f.Args
	}
	s.pur.reset()
	s.tmp = s.tmp[:0]
	for _, c := range top {
		s.tmp = append(s.tmp, expr.Simplify(c, s.memo))
	}
	s.conj = expr.AndArgs(s.conj, s.tmp...)
	if len(s.conj) == 1 && s.conj[0].IsFalse() {
		return s.conj
	}
	// Purify div/rem/ite in conjunct order, then re-simplify so the new
	// atoms are canonical.
	s.tmp = s.tmp[:0]
	for _, c := range s.conj {
		s.tmp = append(s.tmp, s.pur.purify(c))
	}
	s.tmp = append(s.tmp, s.pur.defs...)
	s.conj = expr.AndArgs(s.conj, s.tmp...)
	s.tmp = s.tmp[:0]
	for _, c := range s.conj {
		s.tmp = append(s.tmp, expr.Simplify(c, s.memo))
	}
	s.conj = expr.AndArgs(s.conj, s.tmp...)
	return s.conj
}

// collectVars gathers the free variables of the conjunct list into
// s.vars, each once.
func (s *Solver) collectVars(conj []*expr.Term) {
	s.vars = s.vars[:0]
	s.varSet = resetMap(s.varSet)
	var walk func(t *expr.Term)
	walk = func(t *expr.Term) {
		if s.varSet[t] {
			return
		}
		s.varSet[t] = true
		if t.Op == expr.OpVar {
			s.vars = append(s.vars, t)
			return
		}
		for _, a := range t.Args {
			walk(a)
		}
	}
	for _, c := range conj {
		walk(c)
	}
}

func (s *Solver) check(f *expr.Term, bounds map[string]interval.Interval, qtok *cancel.Token, query uint64) (Result, error) {
	fresh := s.prepare()
	conj := s.frontEnd(f)
	switch {
	case len(conj) == 0:
		m := expr.Model{}
		fillModel(m, nil, bounds, s.opts.DefaultBounds)
		return Result{Status: Sat, Model: m}, nil
	case conj[0].IsFalse():
		return Result{Status: Unsat}, nil
	}

	if fresh {
		s.enc = newEncoder()
		s.box = lia.NewBox(nil)
	} else {
		s.enc.reset()
		s.box.Reset()
	}
	enc := s.enc
	defer func() {
		s.stats.clausesLearned.Add(enc.sat.Statist.Learned)
		s.stats.clausesDeleted.Add(enc.sat.Statist.Deleted)
	}()
	root := enc.encodeConj(conj)
	if qtok != nil {
		enc.sat.Stop = qtok.Expired
	}
	enc.sat.MaxConflicts = s.opts.MaxConflicts
	if !enc.sat.AddClause(root) || !s.boundBools(bounds) {
		return Result{Status: Unsat}, nil
	}
	budgetErr := func(stage string, round int, detail error) error {
		s.stats.unknowns.Add(1)
		return &BudgetError{
			Stage:        stage,
			Query:        query,
			TheoryRounds: round,
			Conflicts:    enc.sat.Statist.Conflicts,
			Clauses:      enc.sat.NumClauses(),
			Atoms:        len(enc.atomVar),
			Detail:       detail,
		}
	}
	lopts := s.opts.LIA
	if qtok != nil {
		lopts.Stop = qtok.Expired
	}

	// Assemble the domains of all integer variables of the purified
	// formula: the query's bounds, else the default. Each variable is
	// extended once, with its final domain.
	s.collectVars(conj)
	box := s.box
	for _, v := range s.vars {
		if _, ok := bounds[v.Name]; !ok && v.Sort == expr.SortInt {
			box.Extend(v.Name, s.opts.DefaultBounds)
		}
	}
	for name, iv := range bounds {
		box.Extend(name, iv)
	}
	for round := 0; round < s.opts.MaxTheoryRounds; round++ {
		if qtok.Expired() {
			return Result{Status: Unknown}, budgetErr("deadline", round, qtok.Err())
		}
		s.stats.theoryRounds.Add(1)
		satStart := time.Now()
		satStatus := enc.sat.Solve()
		s.stats.timeSat(satStart)
		switch satStatus {
		case sat.Unsat:
			return Result{Status: Unsat}, nil
		case sat.Unknown:
			stage := "sat-conflicts"
			if qtok.Expired() {
				stage = "deadline"
			}
			return Result{Status: Unknown}, budgetErr(stage, round, nil)
		}
		if !enc.sat.VerifyModel() {
			// The SAT tier's model does not satisfy its own clause set: a
			// CDCL bug. Degrade to Unknown; the caller's ladder decides
			// whether a lower rung can still answer.
			s.guard.NoteFailure()
			s.guard.QuarantineRung()
			s.stats.unknowns.Add(1)
			return Result{Status: Unknown}, fmt.Errorf("%w (sat tier, query %d round %d)", guard.ErrVerdictRejected, query, round)
		}
		model := enc.sat.Model()

		// Assert only a support set of theory literals: a subset that by
		// itself forces the formula true under the skeleton model (a
		// cheap prime-implicant extraction). Smaller assertion sets mean
		// cheaper LIA calls and far more general blocking clauses.
		support := enc.support(conj, model)
		var cons []lia.Constraint
		var asserted []sat.Lit
		for _, sl := range support {
			c, err := s.constraint(sl)
			if err != nil {
				return Result{}, err
			}
			cons = append(cons, c)
			asserted = append(asserted, sat.MkLit(enc.atomVar[sl.atom], !sl.positive))
		}
		liaStart := time.Now()
		res, err := box.Solve(cons, lopts)
		s.stats.timeLIA(liaStart)
		if err != nil {
			if errors.Is(err, lia.ErrBudget) {
				stage := "lia"
				if qtok.Expired() {
					stage = "deadline"
				}
				return Result{Status: Unknown}, budgetErr(stage, round, err)
			}
			return Result{}, err
		}
		if res.Status == lia.Sat {
			if s.guard.Config().Paranoid && !lia.Verify(lia.Problem{Cons: cons, Bounds: box.Bounds()}, res.Model) {
				// The LIA tier's assignment violates its own constraint
				// system (paranoid-mode defense in depth).
				s.guard.NoteFailure()
				s.guard.QuarantineRung()
				s.stats.unknowns.Add(1)
				return Result{Status: Unknown}, fmt.Errorf("%w (lia tier, query %d round %d)", guard.ErrVerdictRejected, query, round)
			}
			m := expr.Model{}
			for name, v := range res.Model {
				if !strings.HasPrefix(name, auxPrefix) {
					m[name] = v
				}
			}
			for name, v := range enc.boolVar {
				if model[v] {
					m[name] = 1
				} else {
					m[name] = 0
				}
			}
			fillModel(m, s.vars, bounds, s.opts.DefaultBounds)
			return Result{Status: Sat, Model: m}, nil
		}
		// Theory conflict: block this support set.
		block := make([]sat.Lit, len(asserted))
		for i, l := range asserted {
			block[i] = l.Not()
		}
		if !enc.sat.AddClause(block...) {
			return Result{Status: Unsat}, nil
		}
	}
	return Result{Status: Unknown}, budgetErr("theory-rounds", s.opts.MaxTheoryRounds, nil)
}

// boundBools restricts each encoded Boolean variable to its explicit
// bound, which the LIA tier never sees: a bound excluding 0 or 1 becomes a
// unit clause, one excluding both makes the query unsat (false). Variables
// are constrained in name order, so the CNF is deterministic.
func (s *Solver) boundBools(bounds map[string]interval.Interval) bool {
	enc := s.enc
	var names []string
	for name := range enc.boolVar {
		if _, ok := bounds[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		iv, v := bounds[name], enc.boolVar[name]
		switch can0, can1 := iv.Contains(0), iv.Contains(1); {
		case !can0 && !can1:
			return false
		case !can0:
			if !enc.sat.AddClause(sat.MkLit(v, false)) {
				return false
			}
		case !can1:
			if !enc.sat.AddClause(sat.MkLit(v, true)) {
				return false
			}
		}
	}
	return true
}

// constraint returns the LIA constraint of a theory literal from the
// solver-lifetime table, translating and recording it on a miss. Entries
// are shared across rounds and queries: the LIA tier clones its input and
// only reads it when verifying.
func (s *Solver) constraint(sl suppLit) (lia.Constraint, error) {
	if c, ok := s.atomCons[sl]; ok {
		return c, nil
	}
	c, err := atomToConstraint(sl.atom, sl.positive)
	if err != nil {
		return lia.Constraint{}, err
	}
	s.atomCons[sl] = c
	return c, nil
}

// fillModel ensures every bounded variable, and every non-auxiliary
// variable of the formula, has a value.
func fillModel(m expr.Model, vars []*expr.Term, bounds map[string]interval.Interval, def interval.Interval) {
	for name, iv := range bounds {
		if _, ok := m[name]; !ok {
			m[name] = clamp(0, iv)
		}
	}
	for _, v := range vars {
		if _, ok := m[v.Name]; !ok && !strings.HasPrefix(v.Name, auxPrefix) {
			m[v.Name] = clamp(0, def)
		}
	}
}

func clamp(pref int64, iv interval.Interval) int64 {
	if pref < iv.Lo {
		return iv.Lo
	}
	if pref > iv.Hi {
		return iv.Hi
	}
	return pref
}

// IsSat reports whether f is satisfiable.
func (s *Solver) IsSat(f *expr.Term, bounds map[string]interval.Interval) (bool, error) {
	st, err := s.Decide(f, bounds)
	if err != nil {
		return false, err
	}
	return st == Sat, nil
}

// GetModel returns a model of f, or ok=false when unsatisfiable.
func (s *Solver) GetModel(f *expr.Term, bounds map[string]interval.Interval) (expr.Model, bool, error) {
	res, err := s.Check(f, bounds)
	if err != nil {
		return nil, false, err
	}
	if res.Status != Sat {
		return nil, false, nil
	}
	return res.Model, true, nil
}

// Valid reports whether f holds for every assignment (within bounds):
// it checks that ¬f is unsatisfiable.
func (s *Solver) Valid(f *expr.Term, bounds map[string]interval.Interval) (bool, error) {
	st, err := s.Decide(expr.Not(f), bounds)
	if err != nil {
		return false, err
	}
	return st == Unsat, nil
}

// atomToConstraint translates a canonical atom (≤, =, ≠ between a linear
// combination and a constant) into a lia constraint, honoring polarity.
func atomToConstraint(atom *expr.Term, positive bool) (lia.Constraint, error) {
	op := atom.Op
	lhs, rhs := atom.Args[0], atom.Args[1]
	diff := expr.Linearize(expr.Sub(lhs, rhs))
	k := -diff.Const
	var terms []lia.Term
	for _, a := range diff.SortedAtoms() {
		vars, err := monoVars(a)
		if err != nil {
			return lia.Constraint{}, err
		}
		terms = append(terms, lia.Term{Coef: diff.Coeff[a], Vars: vars})
	}
	// Normalize op to Le/Eq/Ne under polarity.
	switch op {
	case expr.OpLt:
		op, k = expr.OpLe, k-1
	case expr.OpGt: // Σ > k ⇔ ¬(Σ ≤ k)
		op, positive = expr.OpLe, !positive
	case expr.OpGe: // Σ ≥ k ⇔ ¬(Σ ≤ k−1)
		op, k, positive = expr.OpLe, k-1, !positive
	}
	switch op {
	case expr.OpLe:
		if positive {
			return lia.Constraint{Terms: terms, K: k, Rel: lia.RelLe}, nil
		}
		// ¬(Σ ≤ k) ⇔ −Σ ≤ −k−1
		neg := make([]lia.Term, len(terms))
		for i, t := range terms {
			neg[i] = lia.Term{Coef: -t.Coef, Vars: t.Vars}
		}
		return lia.Constraint{Terms: neg, K: -k - 1, Rel: lia.RelLe}, nil
	case expr.OpEq:
		rel := lia.RelEq
		if !positive {
			rel = lia.RelNe
		}
		return lia.Constraint{Terms: terms, K: k, Rel: rel}, nil
	case expr.OpNe:
		rel := lia.RelNe
		if !positive {
			rel = lia.RelEq
		}
		return lia.Constraint{Terms: terms, K: k, Rel: rel}, nil
	}
	return lia.Constraint{}, fmt.Errorf("smt: unsupported atom operator %v", atom.Op)
}

// monoVars decomposes a multiplicative atom into its variable multiset.
func monoVars(t *expr.Term) ([]string, error) {
	switch t.Op {
	case expr.OpVar:
		return []string{t.Name}, nil
	case expr.OpMul:
		l, err := monoVars(t.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := monoVars(t.Args[1])
		if err != nil {
			return nil, err
		}
		vs := append(l, r...)
		insertionSort(vs)
		return vs, nil
	case expr.OpNeg:
		return nil, fmt.Errorf("smt: unexpected negation inside monomial %v", t)
	default:
		return nil, fmt.Errorf("smt: term %v is not linearizable (op %v)", t, t.Op)
	}
}

func insertionSort(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
