package core

import (
	"fmt"

	"lfi/internal/controller"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// snapshotRunner is the campaign executor — the fork-server runtime
// every sweep runs on. It pays the full load pipeline once — program
// registration, kernel files, stub synthesis for the union of every
// function the sweep intercepts, spawn (text copy, relocation, decode,
// symbol maps) — and freezes the result as a vm.Snapshot. Each
// experiment, and the baseline, then restores from the snapshot in
// O(writable bytes) and binds only its own compiled faultload to the
// shared stub surface.
//
// Every run of a sweep therefore executes the same images: stubs for
// functions the current faultload does not name count the call, charge
// the evaluation cost and pass through. That one stub surface is part
// of a sweep's semantics — sibling experiments' stubs count toward
// <cycles> windows and cycle budgets — so a report depends on the
// sweep's function set, never on worker count, memoization or resume.
//
// A runner is immutable after construction and safe for concurrent use
// by any number of sweep workers: the snapshot, stub set and
// pass-through plan are shared read-only, and every run owns a private
// restored System plus a thin controller (evaluators and log).
type snapshotRunner struct {
	cfg      CampaignConfig
	snap     *vm.Snapshot
	stubs    *controller.StubSet    // nil when the sweep intercepts nothing
	passthru *scenario.CompiledPlan // empty plan: the baseline's faultload
	// stubVAs maps each intercepted function to its stub entry address
	// in the template — the breakpoint targets of prefix memoization.
	stubVAs map[string]uint32
	// memo, when non-nil, is the sweep-wide prefix cache (memo.go);
	// nil runs every experiment in full.
	memo *memoCache
}

// sweepFunctions is the union of every function the sweep's faultloads
// intercept — the snapshot template's stub surface.
func sweepFunctions(exps []Experiment) []string {
	var fns []string
	for i := range exps {
		fns = append(fns, experimentFunctions(&exps[i])...)
	}
	return fns
}

// newSnapshotRunner builds the template system for a sweep and
// snapshots it at the post-load entry point. With no functions to
// intercept (an empty matrix, or experiments without faultloads) the
// template preloads no stub library and every run is uninstrumented.
func newSnapshotRunner(cfg CampaignConfig, fns []string) (*snapshotRunner, error) {
	sys := vm.NewSystem(cfg.VM)
	for _, f := range cfg.Programs {
		sys.Register(f)
	}
	for path, data := range cfg.Files {
		sys.Kernel().AddFile(path, data)
	}
	var (
		stubs *controller.StubSet
		spawn vm.SpawnConfig
	)
	if len(fns) > 0 {
		var err error
		if stubs, err = controller.NewStubSet(fns); err != nil {
			return nil, fmt.Errorf("core: sweep: %w", err)
		}
		stubs.InstallTemplate(sys)
		spawn.Preload = stubs.PreloadList()
	}
	proc, err := sys.Spawn(cfg.Executable, spawn)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	stubVAs := make(map[string]uint32)
	if im, ok := proc.ImageByName(controller.StubLibName); ok && stubs != nil {
		for _, fn := range stubs.Functions() {
			if va, ok := im.SymbolVA(fn); ok {
				stubVAs[fn] = va
			}
		}
	}
	return &snapshotRunner{
		cfg:      cfg,
		snap:     snap,
		stubs:    stubs,
		passthru: scenario.MustCompile(&scenario.Plan{}, nil),
		stubVAs:  stubVAs,
	}, nil
}

// experimentFunctions lists the functions an experiment's faultload
// intercepts.
func experimentFunctions(exp *Experiment) []string {
	switch {
	case exp.Compiled != nil:
		return exp.Compiled.Functions()
	case exp.Plan != nil:
		return exp.Plan.Functions()
	}
	return nil
}

// exec restores one run from the snapshot, binds the faultload and
// executes it to completion under the budget. The controller is nil
// when the template intercepts nothing.
func (r *snapshotRunner) exec(cp *scenario.CompiledPlan, budget uint64) (*Report, *controller.Controller, error) {
	sys := r.snap.Restore()
	var ctl *controller.Controller
	if r.stubs != nil {
		// PassThrough stays false: sweep experiments always activate
		// their faults.
		ctl = controller.NewWithStubs(r.stubs, cp)
		if err := ctl.Install(sys); err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
	}
	err := sys.Run(budget) // sequenced: status/cycles are read post-run
	rep, rerr := assembleReport(err, sys, ctl, r.cfg.Avail)
	if r.cfg.VM.Coverage {
		rep.Coverage = coveredInsts(sys)
	}
	return rep, ctl, rerr
}

// baseline runs the clean reference from the snapshot — the shared stub
// surface with an empty faultload, a pure pass-through — and reports
// which swept functions it reached: every stub arrival is counted by
// the baseline controller's per-process evaluators. An experiment whose
// functions are all absent from that set can never fire, so its run
// would replay the baseline bit for bit (baseline-informed pruning).
func (r *snapshotRunner) baseline(budget uint64) (*Report, map[string]bool, error) {
	rep, ctl, err := r.exec(r.passthru, budget)
	if err != nil {
		return nil, nil, err
	}
	if err := checkBaseline(rep, r.cfg.Avail); err != nil {
		return nil, nil, err
	}
	called := make(map[string]bool)
	for fn := range r.stubVAs {
		if ctl.CallCount(fn) > 0 {
			called[fn] = true
		}
	}
	return rep, called, nil
}

// run executes one experiment. Precompiled
// experiments whose faultload has a deterministic first-fire site
// shared with at least one other experiment go through the prefix memo
// cache (memo.go); everything else runs in full via runPlain. The
// served flag is true when the entry was satisfied without a
// member-specific run (terminated shared prefix).
func (r *snapshotRunner) run(exp Experiment, base *Report, budget uint64) (SweepEntry, *Report, bool, error) {
	if r.memo != nil && exp.Compiled != nil {
		site, reason := exp.Compiled.FirstFireSite()
		if reason == "" {
			key := memoKey{fn: site.Function, call: site.Call, ntrig: exp.Compiled.TriggerCount(site.Function)}
			if r.memo.groupSize(key) >= 2 {
				return r.runMemo(exp, key, base, budget)
			}
			r.memo.note(func(s *MemoStats) { s.Singletons++ })
		} else {
			r.memo.note(func(s *MemoStats) { s.Unmemoizable++ })
		}
	}
	entry, rep, err := r.runPlain(exp, base, budget)
	return entry, rep, false, err
}

// runPlain executes one experiment from the snapshot and classifies it,
// returning the run report for OnResult observers alongside the entry.
func (r *snapshotRunner) runPlain(exp Experiment, base *Report, budget uint64) (SweepEntry, *Report, error) {
	entry := exp.entry()
	cp := exp.Compiled
	switch {
	case cp != nil:
	case exp.Plan == nil:
		// A plan-less experiment runs on the pass-through surface: no
		// trigger can fire, so it classifies not-triggered.
		cp = r.passthru
	default:
		var err error
		cp, err = scenario.Compile(exp.Plan, r.cfg.Profiles)
		if err != nil {
			return entry, nil, fmt.Errorf("core: %w", err)
		}
	}
	// A supplied faultload with no triggers intercepts nothing: it is an
	// error, surfaced in plan order.
	if cp != r.passthru && len(cp.Functions()) == 0 {
		return entry, nil, fmt.Errorf("core: controller: %w", controller.ErrNoTriggers)
	}
	rep, _, err := r.exec(cp, budget)
	if err != nil {
		return entry, nil, err
	}
	entry.classify(rep, base, r.cfg.Avail)
	return entry, rep, nil
}

// pruneEntry short-circuits an experiment the baseline proves inert:
// if none of its faultload's functions reached a stub in the clean run,
// the experiment replays the baseline exactly — terminating with the
// baseline exit code and an empty injection log — so its entry can be
// synthesised without spawning a run. Experiments with a missing,
// empty or uncompilable faultload are never pruned; the executor
// surfaces their outcomes and errors in plan order, exactly as without
// pruning.
func pruneEntry(exp *Experiment, called map[string]bool, base *Report, avail *AvailSpec) (SweepEntry, bool) {
	fns := experimentFunctions(exp)
	if len(fns) == 0 {
		return SweepEntry{}, false
	}
	for _, fn := range fns {
		if called[fn] {
			return SweepEntry{}, false
		}
	}
	// A plan the executor would reject must still abort the sweep —
	// pruning skips work, never validation.
	if exp.Compiled == nil && exp.Plan.Validate() != nil {
		return SweepEntry{}, false
	}
	entry := exp.entry()
	entry.Outcome = OutcomeNotTriggered
	entry.ExitCode = base.Status.Code
	if avail != nil && base.Avail != nil {
		// The run would replay the baseline exactly, so the synthesised
		// availability row is the baseline classified against itself.
		entry.Avail = ClassifyAvail(base, base, avail.latencyPct())
		entry.AvailBefore = base.Avail.WarmOK
		entry.AvailDuring = base.Avail.SteadyOK
		entry.AvailAfter = base.Avail.PostOK
	}
	return entry, true
}
