package core

import (
	"container/list"
	"fmt"
	"sync"

	"lfi/internal/controller"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// Trigger-point snapshot memoization: the prefix-sharing layer of the
// snapshot executor.
//
// Every experiment of an exhaustive functions × errnos sweep replays
// the same deterministic prefix from the entry point up to the call its
// fault first becomes fireable at — all E errno variants of one
// (function, call-N) cell pay that prefix E times. The memoizer groups
// experiments by their static first-fire site (scenario.FirstFireSite),
// runs the prefix once per group to just before the site
// (vm.System.RunBreak), freezes guest + controller state as a
// mid-execution vm.Snapshot plus controller.Checkpoint, and restores
// every group member from the pair. The prefix runs on the configured
// engine through the ordinary scheduler loop: under the block engine
// only the stub image holding the site is single-stepped, so a prefix
// costs about what the same stretch of an unmemoized run does. Determinism makes this exact:
// same-site plans evaluate calls 1..N-1 identically (same per-call
// cycle charges, no injections, no random draws), so the restored runs
// are bit-identical to unbroken ones and the rendered report matches
// the non-memoized sweep byte for byte (scripts/memocheck.sh).
//
// Cached prefixes live in a byte-budgeted LRU shared by all sweep
// workers; a first acquirer builds the entry while later members of the
// same group wait on its ready channel, and sealed entries evict
// least-recently-used first. Eviction is safe at any time: snapshots
// are immutable and waiters hold the entry pointer directly.

// DefaultMemoBudget caps the memo cache's resident snapshot bytes when
// SweepOptions.MemoBudget is zero.
const DefaultMemoBudget = 256 << 20

// memoKey identifies one shared-prefix group. Two plans with the same
// key have observably identical evaluation prefixes: the site fixes
// where execution stops, and the per-function trigger count fixes the
// per-call cycle charge (10 + 2*scanned) every earlier intercepted
// call to fn pays.
type memoKey struct {
	fn    string
	call  int32
	ntrig int
}

// memoEntry is one cached prefix. The builder fills exactly one of
// snap+ckpt (the site was reached), term (the prefix terminated first —
// every member's run IS the prefix run) or failed, then seals the entry
// and closes ready; all fields are immutable afterwards.
type memoEntry struct {
	key   memoKey
	ready chan struct{}
	elem  *list.Element

	snap   *vm.Snapshot
	ckpt   *controller.Checkpoint
	term   *Report
	size   int64
	failed bool
	sealed bool
}

// MemoStats summarises the prefix-memoization work of one sweep —
// the memo-hit/group-size numbers `lfi sweep` and `lfi-bench` report.
type MemoStats struct {
	// Groups is the number of first-fire-site groups with at least two
	// members in the plan; MaxGroup is the largest group's size.
	Groups   int
	MaxGroup int
	// Prefixes counts prefix runs executed (rebuilds after eviction
	// included); Restored counts experiments completed from a cached
	// mid-execution snapshot; Terminal counts experiments served whole
	// from a prefix that terminated before its site.
	Prefixes int
	Restored int
	Terminal int
	// Singletons are memoizable experiments alone at their site (run in
	// full — a prefix would amortise over nothing); Unmemoizable are
	// experiments with no deterministic first-fire site; Fallbacks are
	// group members that ran in full because their prefix failed to
	// build.
	Singletons   int
	Unmemoizable int
	Fallbacks    int
	// Evictions counts cache entries evicted by the byte budget;
	// PeakBytes is the cache's high-water resident footprint.
	Evictions int
	PeakBytes int64
}

// String renders the stats as the single diagnostic line `lfi sweep`
// and `lfi-bench` print to stderr (never stdout — the rendered report
// must stay byte-identical to a non-memoized sweep's).
func (s *MemoStats) String() string {
	return fmt.Sprintf("memo: groups=%d max-group=%d prefixes=%d restored=%d terminal=%d singletons=%d unmemoizable=%d fallbacks=%d evictions=%d peak-bytes=%d",
		s.Groups, s.MaxGroup, s.Prefixes, s.Restored, s.Terminal,
		s.Singletons, s.Unmemoizable, s.Fallbacks, s.Evictions, s.PeakBytes)
}

// memoCache is the sweep-wide prefix store, shared by all workers.
type memoCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[memoKey]*memoEntry
	lru     *list.List // front = most recently used
	stats   MemoStats
	// sizes maps each memoizable site to its member count in the plan,
	// precomputed before the sweep starts and read-only after.
	sizes map[memoKey]int
}

func newMemoCache(budget int64) *memoCache {
	if budget <= 0 {
		budget = DefaultMemoBudget
	}
	return &memoCache{
		budget:  budget,
		entries: make(map[memoKey]*memoEntry),
		lru:     list.New(),
		sizes:   make(map[memoKey]int),
	}
}

// plan registers the experiment list's memoizable sites so groupSize
// can tell amortisable groups from singletons, and derives the static
// group stats. Called once, before any worker runs.
func (c *memoCache) plan(exps []Experiment) {
	for i := range exps {
		cp := exps[i].Compiled
		if cp == nil {
			continue
		}
		site, reason := cp.FirstFireSite()
		if reason != "" {
			continue
		}
		c.sizes[memoKey{fn: site.Function, call: site.Call, ntrig: cp.TriggerCount(site.Function)}]++
	}
	for _, n := range c.sizes {
		if n >= 2 {
			c.stats.Groups++
		}
		if n > c.stats.MaxGroup {
			c.stats.MaxGroup = n
		}
	}
}

// groupSize returns how many plan experiments share the site.
func (c *memoCache) groupSize(key memoKey) int { return c.sizes[key] }

// acquire returns the cache entry for key and whether the caller must
// build it. A non-building caller waits on entry.ready before reading.
func (c *memoCache) acquire(key memoKey) (*memoEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		return e, false
	}
	e := &memoEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.stats.Prefixes++
	return e, true
}

// seal publishes a built entry: accounts its footprint, evicts
// least-recently-used sealed entries beyond the byte budget, and wakes
// waiters. The just-sealed entry itself is never evicted here, so a
// group always completes against the prefix it built even when a single
// snapshot exceeds the whole budget.
func (c *memoCache) seal(e *memoEntry) {
	c.mu.Lock()
	switch {
	case e.snap != nil:
		e.size = e.snap.Footprint()
	default:
		e.size = 1024 // terminal or failed: the entry itself
	}
	e.sealed = true
	c.used += e.size
	if c.used > c.stats.PeakBytes {
		c.stats.PeakBytes = c.used
	}
	for c.used > c.budget {
		var victim *memoEntry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			v := el.Value.(*memoEntry)
			if v.sealed && v != e {
				victim = v
				break
			}
		}
		if victim == nil {
			break
		}
		c.lru.Remove(victim.elem)
		delete(c.entries, victim.key)
		c.used -= victim.size
		c.stats.Evictions++
	}
	c.mu.Unlock()
	close(e.ready)
}

// note runs a stats mutation under the cache lock.
func (c *memoCache) note(f func(*MemoStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// statsSnapshot copies the final counters out for SweepResult.Memo.
func (c *memoCache) statsSnapshot() *MemoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	return &st
}

// runMemo executes one group member through the prefix cache: restore
// the group's mid-execution snapshot (building it first if this member
// arrives before anyone else), seed a thin controller with the
// checkpointed evaluator state and log prefix, and run only the suffix.
// The served flag is true when the entry came from a terminated prefix
// without executing anything member-specific.
func (r *snapshotRunner) runMemo(exp Experiment, key memoKey, base *Report, budget uint64) (SweepEntry, *Report, bool, error) {
	entry := exp.entry()
	e, build := r.memo.acquire(key)
	if build {
		r.buildPrefix(e, exp.Compiled, key, budget)
	} else {
		<-e.ready
	}
	switch {
	case e.failed:
		// The prefix could not be built (or violated the no-pre-site-
		// injection invariant): run this member in full, like a
		// non-memoized sweep would.
		r.memo.note(func(s *MemoStats) { s.Fallbacks++ })
		entry, rep, err := r.runPlain(exp, base, budget)
		return entry, rep, false, err
	case e.term != nil:
		// The prefix terminated before the site with no injection, so
		// every member's run is identical to it: serve the shared report.
		r.memo.note(func(s *MemoStats) { s.Terminal++ })
		entry.classify(e.term, base, r.cfg.Avail)
		return entry, e.term, true, nil
	}
	sys := e.snap.Restore()
	ctl := controller.NewWithStubs(r.stubs, exp.Compiled)
	ctl.SeedCheckpoint(e.ckpt)
	if err := ctl.Install(sys); err != nil {
		return entry, nil, false, err
	}
	err := sys.Run(budget) // absolute budget: TotalCycles carries over the prefix
	rep, rerr := assembleReport(err, sys, ctl, r.cfg.Avail)
	if r.cfg.VM.Coverage {
		rep.Coverage = coveredInsts(sys)
	}
	if rerr != nil {
		return entry, nil, false, rerr
	}
	r.memo.note(func(s *MemoStats) { s.Restored++ })
	entry.classify(rep, base, r.cfg.Avail)
	return entry, rep, false, nil
}

// buildPrefix runs the shared prefix for one group: restore the entry
// snapshot, bind the building member's faultload (any member works —
// same-key plans evaluate the prefix identically), run to just before
// the site's call, and freeze guest + controller state. When the guest
// terminates (or exhausts the budget, or deadlocks) before ever
// reaching the site, the completed run itself is the result for every
// member — provided nothing was injected, which the analyzer
// guarantees and this defensively re-checks.
func (r *snapshotRunner) buildPrefix(e *memoEntry, cp *scenario.CompiledPlan, key memoKey, budget uint64) {
	defer r.memo.seal(e)
	va, ok := r.stubVAs[key.fn]
	if !ok {
		e.failed = true
		return
	}
	sys := r.snap.Restore()
	ctl := controller.NewWithStubs(r.stubs, cp)
	if err := ctl.Install(sys); err != nil {
		e.failed = true
		return
	}
	hit, err := sys.RunBreak(va, key.call, budget)
	if len(ctl.Log()) > 0 {
		// An injection before the site contradicts FirstFireSite; never
		// share such a prefix.
		e.failed = true
		return
	}
	if !hit {
		rep, rerr := assembleReport(err, sys, ctl, r.cfg.Avail)
		if rerr != nil {
			e.failed = true
			return
		}
		if r.cfg.VM.Coverage {
			rep.Coverage = coveredInsts(sys)
		}
		e.term = rep
		return
	}
	snap, serr := sys.Snapshot()
	if serr != nil {
		e.failed = true
		return
	}
	e.snap = snap
	e.ckpt = ctl.Checkpoint()
}
