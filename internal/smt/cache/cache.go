// Package cache memoizes SMT verdicts. The repair loop re-solves
// structurally identical QF_LIA queries constantly — every branch flip
// re-checks patch feasibility against the same path prefix, and parallel
// workers race to answer the same pick-new-input queries — so a verdict
// cache in front of the solver removes a large share of the total solver
// work.
//
// Keying is exact and cheap because terms are hash-consed (package expr):
// a query is identified by the interned formula pointer plus a canonical
// rendering of its bounds map (including the solver's default bounds, which
// affect both the verdict and the model). Two extras beyond plain
// memoization:
//
//   - Models are cached alongside sat verdicts and returned as copies, so
//     a hit is indistinguishable from re-solving (the solver is
//     deterministic for a fixed query and options).
//   - Unsat verdicts additionally feed a bounded subsumption index: a
//     query whose top-level conjunct set is a superset of a cached-unsat
//     conjunct set, over variable domains no wider than the cached ones,
//     is unsat without solving.
//
// A Cache is safe for concurrent use by many solvers.
package cache

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

// Options bounds the cache.
type Options struct {
	// MaxEntries caps the exact verdict/model entries (LRU eviction).
	// Zero means 4096.
	MaxEntries int
	// MaxUnsatCores caps the subsumption index (LRU eviction). Zero
	// means 256.
	MaxUnsatCores int
	// MaxBytes caps the cache's approximate byte footprint (entries +
	// cores, see ApproxBytes); Store evicts LRU entries past it. Zero
	// means no byte cap — the entry-count caps still apply.
	MaxBytes uint64
}

func (o Options) withDefaults() Options {
	if o.MaxEntries == 0 {
		o.MaxEntries = 4096
	}
	if o.MaxUnsatCores == 0 {
		o.MaxUnsatCores = 256
	}
	return o
}

// Stats counts cache traffic. Subsumed is the subset of Hits answered by
// the unsat-subsumption index rather than an exact entry. Shrinks counts
// explicit Shrink calls that evicted anything; ShrinkEvictions the
// entries they removed (also included in Evictions).
type Stats struct {
	Hits            uint64
	Misses          uint64
	Evictions       uint64
	Subsumed        uint64
	Shrinks         uint64
	ShrinkEvictions uint64
}

// Value is a cached verdict: Sat with its model, or unsat. A Sat value
// with a nil Model is verdict-only — feasibility checks (smt Decide) store
// verdicts without their models, and such entries answer LookupVerdict
// but not Lookup (which promises a model on sat hits).
type Value struct {
	Sat   bool
	Model expr.Model
}

// verdictOnly reports whether the value carries no model despite being sat.
func (v Value) verdictOnly() bool { return v.Sat && v.Model == nil }

type key struct {
	f      *expr.Term
	bounds string
}

type entry struct {
	key   key
	value Value
}

// unsatCore records why a formula was unsat: its top-level conjuncts and
// the effective domain of each of its variables. Any query that asserts
// at least these conjuncts over domains contained in these is unsat too.
// src is the exact-entry key whose Store added the core, so invalidating
// that entry also withdraws its generalization.
type unsatCore struct {
	conjuncts map[*expr.Term]struct{}
	bounds    map[string]interval.Interval
	src       key
}

// Cache is a bounded memo table of solver verdicts.
type Cache struct {
	mu        sync.Mutex
	opts      Options
	entries   map[key]*list.Element
	lru       *list.List // of *entry; front = most recently used
	cores     *list.List // of *unsatCore; front = most recently added/hit
	coreByKey map[key]*list.Element
	stats     Stats
	// bytes is the running approximate footprint of entries + cores,
	// maintained on every insert/evict/invalidate (see entryBytes and
	// coreBytes). It is what ApproxBytes reports and Shrink targets.
	bytes uint64
	// trackInv/retract record withdrawn entries for shard knowledge
	// sharing: a peer that imported an entry must hear about its
	// invalidation, or the withdrawn verdict would outlive its source.
	// See TrackInvalidations/DrainInvalidations in delta.go.
	trackInv bool
	retract  []Key
}

// New returns an empty cache.
func New(opts Options) *Cache {
	return &Cache{
		opts:      opts.withDefaults(),
		entries:   make(map[key]*list.Element),
		lru:       list.New(),
		cores:     list.New(),
		coreByKey: make(map[key]*list.Element),
	}
}

// Stats returns a snapshot of the traffic counters. A nil cache has
// zero stats.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of exact entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Lookup returns the cached verdict for f under the given bounds (def is
// the solver's default domain for unbounded integer variables). The model
// of a sat hit is a copy; callers may mutate it freely.
func (c *Cache) Lookup(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval) (Value, bool) {
	if c == nil {
		return Value{}, false
	}
	k := key{f: f, bounds: boundsKey(bounds, def)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		v := el.Value.(*entry).value
		if !v.verdictOnly() {
			c.lru.MoveToFront(el)
			c.stats.Hits++
			return Value{Sat: v.Sat, Model: v.Model.Clone()}, true
		}
		// Verdict-only sat entry: a model is required, so this is a miss;
		// the subsequent Store upgrades the entry with the model.
	}
	if c.subsumedUnsat(f, bounds, def) {
		c.stats.Hits++
		c.stats.Subsumed++
		return Value{Sat: false}, true
	}
	c.stats.Misses++
	return Value{}, false
}

// LookupVerdict returns the cached verdict for f under the given bounds
// when only the sat/unsat answer is needed: it accepts verdict-only
// entries that Lookup (which promises a model) must skip.
func (c *Cache) LookupVerdict(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval) (isSat, ok bool) {
	if c == nil {
		return false, false
	}
	k := key{f: f, bounds: boundsKey(bounds, def)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry).value.Sat, true
	}
	if c.subsumedUnsat(f, bounds, def) {
		c.stats.Hits++
		c.stats.Subsumed++
		return false, true
	}
	c.stats.Misses++
	return false, false
}

// Store records a decisive verdict for f under the given bounds. Unknown
// answers must not be stored — they depend on budgets, not on the query.
func (c *Cache) Store(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval, v Value) {
	if c == nil {
		return
	}
	k := key{f: f, bounds: boundsKey(bounds, def)}
	if v.Model != nil { // Clone maps nil to an empty model; keep verdict-only nil
		v.Model = v.Model.Clone()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		// Concurrent workers race to fill the same slot; the solver is
		// deterministic, so the values agree and either may win — except
		// that a verdict-only value must not downgrade an entry that
		// already carries a model.
		if old := el.Value.(*entry).value; !(v.verdictOnly() && !old.verdictOnly()) {
			c.bytes += entryBytes(k, v) - entryBytes(k, old)
			el.Value.(*entry).value = v
		}
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&entry{key: k, value: v})
	c.bytes += entryBytes(k, v)
	for len(c.entries) > c.opts.MaxEntries ||
		(c.opts.MaxBytes > 0 && c.bytes > c.opts.MaxBytes && len(c.entries) > 1) {
		c.evictOldestLocked()
	}
	if !v.Sat {
		c.addCore(f, bounds, def, k)
	}
}

// evictOldestLocked removes the LRU entry. Caller holds c.mu and
// guarantees the cache is non-empty.
func (c *Cache) evictOldestLocked() {
	oldest := c.lru.Back()
	c.lru.Remove(oldest)
	e := oldest.Value.(*entry)
	delete(c.entries, e.key)
	c.bytes -= entryBytes(e.key, e.value)
	c.stats.Evictions++
}

// Approximate per-item overheads: struct headers, the list element, and a
// share of the map bucket. The goal is a cheap, monotone estimate the
// governor can act on — not malloc-exact truth.
const (
	entryOverheadBytes = 160
	coreOverheadBytes  = 112
	modelEntryBytes    = 48 // map bucket share + name header; name length added separately
	boundEntryBytes    = 56 // name header + interval + bucket share
	conjunctBytes      = 16 // one interned pointer + set bucket share
)

// entryBytes approximates the heap footprint of one exact entry.
func entryBytes(k key, v Value) uint64 {
	n := uint64(entryOverheadBytes + len(k.bounds))
	for name := range v.Model {
		n += modelEntryBytes + uint64(len(name))
	}
	return n
}

// coreBytes approximates the heap footprint of one subsumption core.
func coreBytes(core *unsatCore) uint64 {
	n := uint64(coreOverheadBytes + len(core.src.bounds))
	n += uint64(len(core.conjuncts)) * conjunctBytes
	for name := range core.bounds {
		n += boundEntryBytes + uint64(len(name))
	}
	return n
}

// ApproxBytes reports the cache's approximate byte footprint (exact
// entries plus subsumption cores). Zero on a nil cache. This is the size
// callback the memory governor polls, so it must stay cheap: the figure
// is maintained incrementally, never recomputed.
func (c *Cache) ApproxBytes() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Shrink evicts least-recently-used entries (and, if entries alone do not
// suffice, oldest subsumption cores) until the approximate footprint is
// at or below targetBytes. A target of 0 empties the cache. It returns
// the number of items evicted and the approximate bytes freed. Safe on a
// nil cache and safe to race with concurrent Lookup/Store traffic — the
// cache is pure memoization, so shrinking never changes results, only
// hit rates.
func (c *Cache) Shrink(targetBytes uint64) (evicted int, freed uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.bytes
	for c.bytes > targetBytes && len(c.entries) > 0 {
		c.evictOldestLocked()
		c.stats.ShrinkEvictions++
		evicted++
	}
	for c.bytes > targetBytes && c.cores.Len() > 0 {
		oldest := c.cores.Back()
		c.cores.Remove(oldest)
		core := oldest.Value.(*unsatCore)
		delete(c.coreByKey, core.src)
		c.bytes -= coreBytes(core)
		c.stats.ShrinkEvictions++
		evicted++
	}
	if evicted > 0 {
		c.stats.Shrinks++
	}
	return evicted, before - c.bytes
}

// Key identifies an exact cache entry; obtained from KeyOf before a Store
// so the entry can later be withdrawn by InvalidateKey without re-rendering
// the bounds map. The zero Key matches nothing.
type Key struct {
	f      *expr.Term
	bounds string
}

// KeyOf returns the exact-entry key a Store for this query would use.
func KeyOf(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval) Key {
	return Key{f: f, bounds: boundsKey(bounds, def)}
}

// InvalidateKey withdraws the exact entry identified by k, along with any
// unsat-subsumption core that entry's Store contributed — a poisoned unsat
// entry must not keep answering supersets of its conjuncts after it is
// pulled. Unknown keys are a no-op; safe on a nil cache.
func (c *Cache) InvalidateKey(k Key) {
	if c == nil {
		return
	}
	ik := key{f: k.f, bounds: k.bounds}
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := false
	if el, ok := c.entries[ik]; ok {
		c.lru.Remove(el)
		e := el.Value.(*entry)
		delete(c.entries, ik)
		c.bytes -= entryBytes(e.key, e.value)
		removed = true
	}
	if el, ok := c.coreByKey[ik]; ok {
		c.cores.Remove(el)
		c.bytes -= coreBytes(el.Value.(*unsatCore))
		delete(c.coreByKey, ik)
		removed = true
	}
	if removed && c.trackInv {
		c.retract = append(c.retract, k)
	}
}

// Invalidate withdraws the entry for f under the given bounds; see
// InvalidateKey.
func (c *Cache) Invalidate(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval) {
	c.InvalidateKey(KeyOf(f, bounds, def))
}

// addCore indexes an unsat formula for subsumption. Caller holds c.mu.
func (c *Cache) addCore(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval, k key) {
	core := &unsatCore{
		conjuncts: conjunctSet(f),
		bounds:    make(map[string]interval.Interval),
		src:       k,
	}
	for _, v := range expr.Vars(f) {
		if v.Sort != expr.SortInt {
			continue
		}
		if iv, ok := bounds[v.Name]; ok {
			core.bounds[v.Name] = iv
		} else {
			core.bounds[v.Name] = def
		}
	}
	// An empty domain for a variable outside f makes the whole query unsat
	// for a reason the conjunct set cannot witness (the solver pins every
	// bounded variable, occurring or not); such a verdict must not be
	// generalized to other bounds maps.
	for name, iv := range bounds {
		if iv.IsEmpty() {
			if _, ok := core.bounds[name]; !ok {
				return
			}
		}
	}
	if old, ok := c.coreByKey[k]; ok {
		c.cores.Remove(old)
		c.bytes -= coreBytes(old.Value.(*unsatCore))
	}
	c.coreByKey[k] = c.cores.PushFront(core)
	c.bytes += coreBytes(core)
	for c.cores.Len() > c.opts.MaxUnsatCores {
		oldest := c.cores.Back()
		c.cores.Remove(oldest)
		c.bytes -= coreBytes(oldest.Value.(*unsatCore))
		delete(c.coreByKey, oldest.Value.(*unsatCore).src)
	}
}

// subsumedUnsat reports whether a cached unsat core proves f unsat: the
// core's conjuncts are a subset of f's and every core variable's domain in
// this query is contained in the core's. Any model of f within its bounds
// would then satisfy the core formula within the core's bounds — which has
// none. Caller holds c.mu.
func (c *Cache) subsumedUnsat(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval) bool {
	if c.cores.Len() == 0 {
		return false
	}
	have := conjunctSet(f)
	for el := c.cores.Front(); el != nil; el = el.Next() {
		core := el.Value.(*unsatCore)
		if matches(core, have, bounds, def) {
			c.cores.MoveToFront(el)
			return true
		}
	}
	return false
}

func matches(core *unsatCore, have map[*expr.Term]struct{}, bounds map[string]interval.Interval, def interval.Interval) bool {
	if len(core.conjuncts) > len(have) {
		return false
	}
	for t := range core.conjuncts {
		if _, ok := have[t]; !ok {
			return false
		}
	}
	for name, civ := range core.bounds {
		qiv := def
		if iv, ok := bounds[name]; ok {
			qiv = iv
		}
		if !contains(civ, qiv) {
			return false
		}
	}
	return true
}

// contains reports outer ⊇ inner (an empty inner is contained in anything).
func contains(outer, inner interval.Interval) bool {
	return inner.IsEmpty() || (outer.Lo <= inner.Lo && inner.Hi <= outer.Hi)
}

// conjunctSet decomposes f into its top-level conjuncts (f itself when it
// is not a conjunction). Terms are interned, so the pointers identify the
// conjuncts structurally.
func conjunctSet(f *expr.Term) map[*expr.Term]struct{} {
	set := make(map[*expr.Term]struct{})
	if f.Op == expr.OpAnd {
		for _, a := range f.Args {
			set[a] = struct{}{}
		}
	} else {
		set[f] = struct{}{}
	}
	return set
}

// BoundsKey renders a bounds map canonically, default domain included:
// the form exported entries carry and ParseBoundsKey inverts.
func BoundsKey(bounds map[string]interval.Interval, def interval.Interval) string {
	return boundsKey(bounds, def)
}

// boundsKey renders a bounds map canonically. The default domain is part
// of the key: it determines both the verdict (domains of unlisted
// variables) and the model that fillModel produces.
func boundsKey(bounds map[string]interval.Interval, def interval.Interval) string {
	var b strings.Builder
	b.WriteString("d")
	writeIv(&b, def)
	if len(bounds) == 0 {
		return b.String()
	}
	names := make([]string, 0, len(bounds))
	for name := range bounds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteByte(';')
		b.WriteString(name)
		writeIv(&b, bounds[name])
	}
	return b.String()
}

func writeIv(b *strings.Builder, iv interval.Interval) {
	b.WriteByte(':')
	b.WriteString(strconv.FormatInt(iv.Lo, 10))
	b.WriteByte(':')
	b.WriteString(strconv.FormatInt(iv.Hi, 10))
}
