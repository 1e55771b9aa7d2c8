package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lfi/internal/audit"
	"lfi/internal/campaign"
	"lfi/internal/core"
	"lfi/internal/profile"
)

// sweepWorkers is the executor's worker count. One worker keeps the
// sweep's own threads from competing with each other and with the Go
// runtime for the CPUs of a small shared host, and keeps a campaign's
// time from hanging on which worker happens to draw its longest
// experiment; both made runs of the same code spread wider than a
// regression bound.
const sweepWorkers = 1

// sweepOptions is the one place the executor is configured: the
// snapshot executor with copy-on-write restores, prefix memoization at
// its default and the default engine — the path `lfi sweep -snapshot`
// runs.
func sweepOptions() core.SweepOptions {
	return core.SweepOptions{Workers: sweepWorkers, Snapshot: true}
}

// execResult is one experiment as the executor reported it to OnResult.
type execResult struct {
	entry      core.SweepEntry
	rep        *core.Report
	start, end time.Time
}

// campaignRun is what one timed campaign produced.
type campaignRun struct {
	name string
	n    int               // experiments planned
	exps []core.Experiment // plan order

	start, firstSkip, firstFinding, sweepEnd, end time.Time

	digest     string
	tally      map[string]int
	cycles     uint64
	injections uint64
	memo       core.MemoStats

	// Traced campaigns only: the executor's per-experiment results by
	// report coordinates (coord), the Go heap allocated after setup and
	// the slowest experiment's service time.
	results    map[string]*execResult
	allocBytes uint64
	slowest    time.Duration
}

// release drops the experiments and results once the campaign is
// checked, so rounds kept for the metrics do not hold guest state and
// inflate the peak resident memory the benchmark reports.
func (cr *campaignRun) release() {
	cr.exps, cr.results = nil, nil
}

// hooks are the executor callbacks of one campaign. Untraced, they
// record only what the end-to-end metrics and output checks need;
// traced, they also keep every experiment's service and commit spans.
type hooks struct {
	tr     *tracer // nil when untraced
	trace  string
	parent int

	skipOnce   sync.Once
	firstSkip  time.Time
	allocStart uint64
	onResults  atomic.Int64
	cycles     atomic.Uint64
	injections atomic.Uint64

	// Progress runs on the collector goroutine only.
	commits      int
	commitErr    error
	firstFinding time.Time

	// Traced only. The maps are keyed by report coordinates (coord),
	// which are cheaper to render than Experiment.Key; keys maps them to
	// the Key that names each experiment's trace.
	keys    map[string]string
	mu      sync.Mutex
	starts  map[string]time.Time
	results map[string]*execResult
}

func (h *hooks) skip(exp *core.Experiment) (core.SweepEntry, bool) {
	now := time.Now()
	h.skipOnce.Do(func() {
		h.firstSkip = now
		if h.tr != nil {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			h.allocStart = ms.TotalAlloc
		}
	})
	if h.tr != nil {
		c := expCoord(exp)
		h.mu.Lock()
		h.starts[c] = now
		h.mu.Unlock()
	}
	return core.SweepEntry{}, false
}

func (h *hooks) onResult(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) {
	now := time.Now()
	h.onResults.Add(1)
	if rep != nil {
		h.cycles.Add(rep.Cycles)
		h.injections.Add(uint64(len(rep.Injections)))
	}
	if h.tr == nil {
		return
	}
	c := expCoord(exp)
	h.mu.Lock()
	start := h.starts[c]
	h.results[c] = &execResult{entry: entry, rep: rep, start: start, end: now}
	h.mu.Unlock()
	h.tr.add("exp.service", h.trace+"/"+h.keys[c], h.parent, start, now)
}

func (h *hooks) progress(p core.SweepProgress) {
	now := time.Now()
	h.commits++
	if p.Done != h.commits && h.commitErr == nil {
		h.commitErr = fmt.Errorf("commit %d reported as %d/%d", h.commits, p.Done, p.Total)
	}
	if h.firstFinding.IsZero() && isFinding(p.Entry) {
		h.firstFinding = now
	}
	if h.tr != nil {
		c := coord(p.Entry)
		h.mu.Lock()
		r := h.results[c]
		h.mu.Unlock()
		if r != nil {
			h.tr.add("exp.commit", h.trace+"/"+h.keys[c], h.parent, r.end, now)
		}
	}
}

// isFinding reports whether a committed entry is something a campaign
// exists to find: a crash, hang or error-exit.
func isFinding(e core.SweepEntry) bool {
	switch e.Outcome {
	case core.OutcomeCrash, core.OutcomeHang, core.OutcomeErrorExit:
		return true
	}
	return false
}

// coord renders an entry's report coordinates — the part of a row that
// identifies the experiment.
func coord(e core.SweepEntry) string {
	return fmt.Sprintf("%s/%s/%d/%d/%t/%s", e.Library, e.Function, e.Retval, e.Errno, e.HasErrno, e.Fault)
}

func expCoord(exp *core.Experiment) string {
	return coord(core.SweepEntry{
		Library: exp.Library, Function: exp.Function, Retval: exp.Retval,
		Errno: exp.Errno, HasErrno: exp.HasErrno, Fault: exp.Fault,
	})
}

// auditTargets lists the functions a profile set covers.
func auditTargets(set profile.Set) []string {
	var out []string
	for _, p := range set {
		for _, fn := range p.Functions {
			out = append(out, fn.Name)
		}
	}
	sort.Strings(out)
	return out
}

// profileTarget profiles the target's libraries in-process when it has
// no fixed profile, returning the set and the product-graph states the
// profiler expanded. The call is recorded as span prefix+"profile".
func profileTarget(t *target, tr *tracer, parent int, prefix string) (profile.Set, int, error) {
	if t.set != nil {
		return t.set, 0, nil
	}
	sp := tr.begin(prefix+"profile", t.name, parent)
	defer tr.end(sp)
	l := core.New(core.Options{Heuristics: true})
	if err := l.AddKernelImage(); err != nil {
		return nil, 0, err
	}
	for _, f := range t.cfg.Programs {
		if err := l.AddLibrary(f); err != nil {
			return nil, 0, err
		}
	}
	set, err := l.ProfileApplication(t.cfg.Executable)
	if err != nil {
		return nil, 0, err
	}
	return set, l.Stats().StatesExpanded, nil
}

// planTarget audits the target and plans its experiments in static
// order: audit.Analyze → core.AnnotateAudit → core.StaticOrder, the
// `lfi sweep -order=static` path. The audit and the planning are
// recorded as spans prefix+"audit" and prefix+"plan".
func planTarget(t *target, set profile.Set, tr *tracer, parent int, prefix string) ([]core.Experiment, []int, error) {
	sp := tr.begin(prefix+"audit", t.name, parent)
	ares, err := audit.Analyze(t.cfg.Programs, auditTargets(set), audit.Options{})
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("audit: %w", err)
	}
	sp = tr.begin(prefix+"plan", t.name, parent)
	defer tr.end(sp)
	exps := core.PlanExperiments(set)
	classes := ares.Classes()
	core.AnnotateAudit(exps, classes)
	return exps, core.StaticOrder(exps, classes), nil
}

// runCampaign runs one campaign end to end — profile, audit, plan,
// sweep into a fresh store, triage, render — and checks its outputs.
// A non-nil tracer records the executor's spans and results for the
// layer pass. The campaign is timed from its first call to its
// rendered, digested report; the store is removed after the clock
// stops.
func runCampaign(t *target, storeRoot string, tr *tracer) (*campaignRun, error) {
	cr := &campaignRun{name: t.name, start: time.Now()}
	root := tr.begin("campaign", t.name, 0)

	set, _, err := profileTarget(t, tr, root, "")
	if err != nil {
		return cr, fmt.Errorf("profile: %w", err)
	}
	var order []int
	cr.exps, order, err = planTarget(t, set, tr, root, "")
	if err != nil {
		return cr, err
	}
	cr.n = len(cr.exps)

	dir, err := os.MkdirTemp(storeRoot, t.name+"-")
	if err != nil {
		return cr, err
	}
	defer os.RemoveAll(dir)
	store, err := campaign.Open(dir)
	if err != nil {
		return cr, err
	}
	defer store.Close() // a scratch store, removed with dir; appends are checked by campaign.Sweep

	sweep := tr.begin("sweep", t.name, root)
	h := &hooks{tr: tr, trace: t.name, parent: sweep}
	if tr != nil {
		h.starts = make(map[string]time.Time, len(cr.exps))
		h.results = make(map[string]*execResult, len(cr.exps))
		h.keys = make(map[string]string, len(cr.exps))
		for i := range cr.exps {
			h.keys[expCoord(&cr.exps[i])] = cr.exps[i].Key()
		}
	}
	opts := sweepOptions()
	opts.ExecOrder = order
	opts.Skip = h.skip
	opts.OnResult = h.onResult
	opts.Progress = h.progress
	sweepStart := time.Now()
	res, err := campaign.Sweep(t.cfg, cr.exps, 0, opts, store, false)
	cr.sweepEnd = time.Now()
	tr.end(sweep)
	if err != nil {
		return cr, fmt.Errorf("sweep: %w", err)
	}
	cr.firstSkip = h.firstSkip
	tr.add("executor.setup", t.name, sweep, sweepStart, h.firstSkip)
	if tr != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		cr.allocBytes = ms.TotalAlloc - h.allocStart
		cr.results = h.results
		for _, r := range h.results {
			cr.slowest = max(cr.slowest, r.end.Sub(r.start))
		}
	}

	sp := tr.begin("triage", t.name, root)
	report := res.Render() + campaign.RenderClusters(campaign.Triage(store.Records()))
	sum := sha256.Sum256([]byte(report))
	cr.digest = hex.EncodeToString(sum[:8])
	tr.end(sp)
	cr.end = time.Now()
	tr.end(root)

	cr.firstFinding = h.firstFinding
	cr.cycles = h.cycles.Load()
	cr.injections = h.injections.Load()
	if res.Memo != nil {
		cr.memo = *res.Memo
	}
	cr.tally = make(map[string]int)
	for _, e := range res.Entries {
		cr.tally[string(e.Outcome)]++
	}
	return cr, checkCampaign(cr, res, store, h)
}

// checkCampaign verifies one campaign's outputs: the baseline exited
// cleanly, every planned experiment ran and committed exactly once and
// in plan order in the report, the store holds one record per
// experiment, and the campaign found something.
func checkCampaign(cr *campaignRun, res *core.SweepResult, store *campaign.Store, h *hooks) error {
	n := len(cr.exps)
	switch {
	case res.Baseline != 0:
		return fmt.Errorf("baseline exited %d", res.Baseline)
	case h.commitErr != nil:
		return h.commitErr
	case h.commits != n:
		return fmt.Errorf("%d commits for %d experiments", h.commits, n)
	case int(h.onResults.Load()) != n:
		return fmt.Errorf("%d results for %d experiments", h.onResults.Load(), n)
	case len(res.Entries) != n:
		return fmt.Errorf("report has %d rows for %d experiments", len(res.Entries), n)
	case cr.firstSkip.IsZero():
		return fmt.Errorf("no experiment was dispatched")
	case cr.firstFinding.IsZero():
		return fmt.Errorf("campaign committed no finding")
	}
	for i := range cr.exps {
		if got, want := coord(res.Entries[i]), expCoord(&cr.exps[i]); got != want {
			return fmt.Errorf("report row %d is %s, planned %s", i, got, want)
		}
	}
	keys := make(map[string]bool, n)
	coords := make(map[string]bool, n)
	for i := range cr.exps {
		keys[cr.exps[i].Key()] = true
		coords[expCoord(&cr.exps[i])] = true
	}
	recs := store.Records()
	if len(keys) != n || len(coords) != n || len(recs) != n {
		return fmt.Errorf("%d distinct keys, %d distinct rows and %d store records for %d experiments",
			len(keys), len(coords), len(recs), n)
	}
	for _, r := range recs {
		if !keys[r.Key] {
			return fmt.Errorf("store record for unplanned key %s", r.Key)
		}
		delete(keys, r.Key)
	}
	if len(keys) != 0 {
		return fmt.Errorf("%d experiments have no store record", len(keys))
	}
	if cr.results != nil && len(cr.results) != n {
		return fmt.Errorf("traced %d results for %d experiments", len(cr.results), n)
	}
	return nil
}
