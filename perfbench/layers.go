package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"lfi/internal/campaign"
	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// layerRun holds the counts the layer pass measured next to its spans.
type layerRun struct {
	states       int
	baseCycles   uint64
	prefixCycles uint64
	recordBytes  int
	records      int
}

// memoSite is a prefix-sharing group as the executor forms it: same
// first-fire function and call, same trigger count on that function.
type memoSite struct {
	fn    string
	call  int32
	ntrig int
}

// layerPass replays one traced campaign's pipeline through the public
// calls of each layer, one span per call, on a single goroutine:
// profiling, audit and planning, stub synthesis, load, snapshot, the
// clean baseline, then every experiment the way the executor ran it —
// restore + bind + run from the entry snapshot, or, for a memo group
// member, from its group's prefix snapshot (built once per group, as
// the executor builds it), or nothing when the group's prefix ended
// before the site — then each result's store append, and triage. Each
// replayed experiment must reproduce the executor's exit status and
// guest cycles, and the pass must take the memo paths the executor
// counted, or the pass measured a different program and fails.
func layerPass(t *target, cr *campaignRun, storeRoot string, tr *tracer) (*layerRun, error) {
	lr := &layerRun{}
	root := tr.begin("layers", t.name, 0)
	defer tr.end(root)

	set, states, err := profileTarget(t, tr, root, "layer.")
	if err != nil {
		return lr, fmt.Errorf("profile: %w", err)
	}
	lr.states = states
	exps, order, err := planTarget(t, set, tr, root, "layer.")
	if err != nil {
		return lr, err
	}
	if len(exps) != len(cr.exps) {
		return lr, fmt.Errorf("layer pass planned %d experiments, executor %d", len(exps), len(cr.exps))
	}

	var fns []string
	for i := range exps {
		if exps[i].Compiled == nil {
			return lr, fmt.Errorf("experiment %s did not compile", exps[i].Key())
		}
		fns = append(fns, exps[i].Compiled.Functions()...)
	}
	sp := tr.begin("layer.stubset", t.name, root)
	stubs, err := controller.NewStubSet(fns)
	tr.end(sp)
	if err != nil {
		return lr, err
	}

	sp = tr.begin("layer.load", t.name, root)
	sys := vm.NewSystem(t.cfg.VM)
	for _, f := range t.cfg.Programs {
		sys.Register(f)
	}
	for path, data := range t.cfg.Files {
		sys.Kernel().AddFile(path, data)
	}
	stubs.InstallTemplate(sys)
	proc, err := sys.Spawn(t.cfg.Executable, vm.SpawnConfig{Preload: stubs.PreloadList()})
	tr.end(sp)
	if err != nil {
		return lr, err
	}
	sp = tr.begin("layer.snapshot", t.name, root)
	snap, err := sys.Snapshot()
	tr.end(sp)
	if err != nil {
		return lr, err
	}
	stubVA := make(map[string]uint32)
	if im, ok := proc.ImageByName(controller.StubLibName); ok {
		for _, fn := range stubs.Functions() {
			if va, ok := im.SymbolVA(fn); ok {
				stubVA[fn] = va
			}
		}
	}
	budget := uint64(core.DefaultSweepBudget)

	// The clean baseline: the shared stub surface with an empty plan.
	base := snap.Restore()
	ctl := controller.NewWithStubs(stubs, scenario.MustCompile(&scenario.Plan{}, nil))
	if err := ctl.Install(base); err != nil {
		return lr, err
	}
	sp = tr.begin("layer.baseline", t.name, root)
	err = base.Run(budget)
	tr.end(sp)
	if err != nil || base.Procs()[0].Status != (vm.ExitStatus{}) {
		return lr, fmt.Errorf("baseline replay: status %+v, %v", base.Procs()[0].Status, err)
	}
	lr.baseCycles = base.TotalCycles

	dir, err := os.MkdirTemp(storeRoot, t.name+"-layers-")
	if err != nil {
		return lr, err
	}
	defer os.RemoveAll(dir)
	store, err := campaign.Open(dir)
	if err != nil {
		return lr, err
	}
	defer store.Close() // a scratch store, removed with dir; appends are checked below

	// Memo groups as the executor forms them: experiments with a
	// deterministic first-fire site, keyed by site and trigger count.
	sizes := make(map[memoSite]int)
	for i := range exps {
		if k, ok := memoKeyOf(&exps[i]); ok {
			sizes[k]++
		}
	}
	prefixes := make(map[memoSite]*memoPrefix)
	var restored, terminal, plain int

	for _, i := range order {
		exp := &exps[i]
		key := exp.Key()
		want := cr.results[expCoord(exp)]
		if want == nil || want.rep == nil {
			return lr, fmt.Errorf("executor reported no run for %s", key)
		}
		trace := t.name + "/" + key
		sp := tr.begin("layer.exp", trace, root)

		// Replay the experiment the way the executor ran it: a member of
		// a memo group of two or more restores the group's prefix
		// snapshot and runs only the suffix, or takes the prefix's own
		// report when the guest ended before the site; everything else
		// runs in full from the entry snapshot.
		var pre *memoPrefix
		if k, ok := memoKeyOf(exp); ok && sizes[k] >= 2 {
			if pre = prefixes[k]; pre == nil {
				pre = buildPrefix(snap, stubs, stubVA, k, exp, budget, tr, trace, root)
				prefixes[k] = pre
				lr.prefixCycles += pre.cycles
			}
			if pre.failed {
				pre = nil
			}
		}
		var status vm.ExitStatus
		var cycles uint64
		if pre != nil && pre.snap == nil {
			status, cycles = pre.status, pre.cycles
			terminal++
		} else {
			from := snap
			if pre != nil {
				from = pre.snap
			}
			t0 := time.Now()
			run := from.Restore()
			t1 := time.Now()
			ctl := controller.NewWithStubs(stubs, exp.Compiled)
			if pre != nil {
				ctl.SeedCheckpoint(pre.ckpt)
			}
			if err := ctl.Install(run); err != nil {
				return lr, err
			}
			t2 := time.Now()
			err := run.Run(budget)
			t3 := time.Now()
			if err != nil && err != vm.ErrBudget && err != vm.ErrDeadlock {
				return lr, fmt.Errorf("replay %s: %w", key, err)
			}
			tr.add("layer.restore", trace, sp, t0, t1)
			tr.add("layer.bind", trace, sp, t1, t2)
			tr.add("layer.run", trace, sp, t2, t3)
			status, cycles = run.Procs()[0].Status, run.TotalCycles
			if pre != nil {
				restored++
			} else {
				plain++
			}
		}
		if status != want.rep.Status || cycles != want.rep.Cycles {
			return lr, fmt.Errorf("replay of %s: status %+v, %d cycles; executor %+v, %d cycles",
				key, status, cycles, want.rep.Status, want.rep.Cycles)
		}

		t4 := time.Now()
		rec := campaign.NewRecord(exp, want.entry, want.rep)
		store.Append(rec)
		tr.add("layer.append", trace, sp, t4, time.Now())
		tr.end(sp)
		line, err := json.Marshal(rec)
		if err != nil {
			return lr, err
		}
		lr.recordBytes += len(line) + 1
		lr.records++
	}
	if err := store.Err(); err != nil {
		return lr, err
	}
	m := cr.memo
	if restored != m.Restored || terminal != m.Terminal || plain != m.Singletons+m.Unmemoizable+m.Fallbacks {
		return lr, fmt.Errorf("layer pass restored %d, served %d from terminal prefixes and ran %d in full; executor %+v",
			restored, terminal, plain, m)
	}

	sp = tr.begin("layer.triage", t.name, root)
	campaign.Triage(store.Records())
	tr.end(sp)
	return lr, nil
}

// memoPrefix is a memo group's shared prefix as the layer pass built
// it: a mid-execution snapshot and controller checkpoint when the guest
// reached the site, the finished run's status and cycles when it ended
// first, or failed when the executor would run the members in full.
type memoPrefix struct {
	failed bool
	snap   *vm.Snapshot
	ckpt   *controller.Checkpoint
	status vm.ExitStatus
	cycles uint64
}

// memoKeyOf returns the experiment's memo group, if it has a
// deterministic first-fire site.
func memoKeyOf(exp *core.Experiment) (memoSite, bool) {
	cp := exp.Compiled
	site, reason := cp.FirstFireSite()
	if reason != "" {
		return memoSite{}, false
	}
	return memoSite{fn: site.Function, call: site.Call, ntrig: cp.TriggerCount(site.Function)}, true
}

// buildPrefix builds one memo group's prefix as the executor does:
// restore the entry snapshot, bind the member's plan, run to just
// before the site's call, then snapshot the guest and checkpoint the
// controller. The run is span layer.prefix and the freeze is span
// layer.prefix_snapshot.
func buildPrefix(snap *vm.Snapshot, stubs *controller.StubSet, stubVA map[string]uint32, k memoSite,
	exp *core.Experiment, budget uint64, tr *tracer, trace string, parent int) *memoPrefix {
	va, ok := stubVA[k.fn]
	if !ok {
		return &memoPrefix{failed: true}
	}
	sp := tr.begin("layer.prefix", trace, parent)
	run := snap.Restore()
	ctl := controller.NewWithStubs(stubs, exp.Compiled)
	if err := ctl.Install(run); err != nil {
		tr.end(sp)
		return &memoPrefix{failed: true}
	}
	hit, err := run.RunBreak(va, k.call, budget)
	tr.end(sp)
	pre := &memoPrefix{cycles: run.TotalCycles}
	switch {
	case len(ctl.Log()) > 0:
		pre.failed = true
	case !hit && err != nil && err != vm.ErrBudget && err != vm.ErrDeadlock:
		pre.failed = true
	case !hit:
		pre.status = run.Procs()[0].Status
	default:
		sp = tr.begin("layer.prefix_snapshot", trace, parent)
		pre.snap, err = run.Snapshot()
		pre.ckpt = ctl.Checkpoint()
		tr.end(sp)
		if err != nil {
			pre.failed = true
		}
	}
	return pre
}
