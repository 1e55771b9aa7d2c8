package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lfi/internal/campaign"
	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/scenario"
)

// unionProbe builds a sweep whose last experiment is the probe: a fault
// on fn shaped by probe. With siblings, one-shot faults on the other
// calls of mixedApp (open, read, close, malloc) come first, so every run
// of the sweep carries their stubs.
func unionProbe(fn string, siblings bool, probe func(*scenario.Trigger)) []core.Experiment {
	mk := func(fn string) core.Experiment {
		retval := "-1"
		if fn == "malloc" {
			retval = "0"
		}
		return core.Experiment{
			Library: libc.Name, Function: fn,
			Plan: &scenario.Plan{Triggers: []scenario.Trigger{{
				Function: fn, Inject: 1, Retval: retval, Once: true,
			}}},
		}
	}
	var exps []core.Experiment
	if siblings {
		for _, sib := range []string{"open", "read", "close", "malloc"} {
			if sib != fn {
				exps = append(exps, mk(sib))
			}
		}
	}
	p := mk(fn)
	p.Fault = "probe"
	probe(&p.Plan.Triggers[0])
	return append(exps, p)
}

// unionConfigs are the executor configurations a sweep's report must
// not depend on.
var unionConfigs = map[string]core.SweepOptions{
	"w1":     {Workers: 1},
	"w4":     {Workers: 4},
	"w8":     {Workers: 8},
	"nomemo": {Workers: 4, NoMemo: true},
	"memo-1": {Workers: 2, MemoBudget: 1},
}

// sweepProbe runs exps under every configuration in unionConfigs and
// through a store resume, requires byte-identical reports, and returns
// the probe's (last entry's) outcome.
func sweepProbe(t *testing.T, cfg core.CampaignConfig, exps []core.Experiment, budget uint64) core.Outcome {
	t.Helper()
	ref, err := core.RunExperiments(cfg, exps, budget, core.SweepOptions{Workers: 1, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Render()
	for name, opts := range unionConfigs {
		res, err := core.RunExperiments(cfg, exps, budget, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := res.Render(); got != want {
			t.Errorf("%s report differs:\n--- ref ---\n%s--- %s ---\n%s", name, want, name, got)
		}
	}
	// Resume: a one-worker sweep appends records in plan order; keeping
	// only the first half of them is a campaign killed halfway.
	dir := t.TempDir()
	store, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Sweep(cfg, exps, budget, core.SweepOptions{Workers: 1}, store, false); err != nil {
		t.Fatal(err)
	}
	store.Close()
	path := filepath.Join(dir, campaign.StoreFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:len(exps)/2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if store, err = campaign.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	res, err := campaign.Sweep(cfg, exps, budget, core.SweepOptions{Workers: 4}, store, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Render(); got != want {
		t.Errorf("resumed report differs:\n--- ref ---\n%s--- resumed ---\n%s", want, got)
	}
	return ref.Entries[len(ref.Entries)-1].Outcome
}

// cyclesOf returns the guest cycles of the probe's run at the default
// budget.
func cyclesOf(t *testing.T, cfg core.CampaignConfig, exps []core.Experiment) uint64 {
	t.Helper()
	var cycles uint64
	_, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: 1, NoMemo: true,
		OnResult: func(exp *core.Experiment, _ core.SweepEntry, rep *core.Report) {
			if exp.Fault == "probe" {
				cycles = rep.Cycles
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cycles
}

// TestSweepUnionSurfaceSemantics pins the executor's one semantic: every
// run of a sweep, baseline included, carries the stubs of every function
// the sweep intercepts, and each stub arrival costs guest cycles whether
// or not the run's own faultload names the function. Sibling
// experiments' stubs therefore count toward <cycles> windows and cycle
// budgets. The report is a function of the sweep's experiment list
// alone: identical at any worker count, with or without memoization,
// under an evicting memo budget and through a store resume. Swept alone,
// the same experiment sees fewer stub cycles and classifies differently.
func TestSweepUnionSurfaceSemantics(t *testing.T) {
	cfg, _ := mixedTarget(t)

	// malloc is mixedApp's last intercepted call. Alone, it arrives
	// inside a 170-cycle window and the unchecked allocation crashes;
	// behind the open/read/close stubs it arrives after the window
	// closes.
	window := func(tr *scenario.Trigger) {
		tr.Conds = []scenario.Cond{scenario.Cycles(0, 170)}
	}
	if got := sweepProbe(t, cfg, unionProbe("malloc", true, window), 0); got != core.OutcomeNotTriggered {
		t.Errorf("malloc <cycles max=170> with siblings = %s, want %s", got, core.OutcomeNotTriggered)
	}
	if got := sweepProbe(t, cfg, unionProbe("malloc", false, window), 0); got != core.OutcomeCrash {
		t.Errorf("malloc <cycles max=170> alone = %s, want %s", got, core.OutcomeCrash)
	}

	// An explicit budget inside the same drift: a pass-through delay on
	// close stretches the run past the baseline, and the budget sits
	// between the probe's cycles alone and with siblings. The run
	// completes alone and exhausts the budget with siblings.
	delay := func(tr *scenario.Trigger) {
		tr.Retval = ""
		tr.Delay = &scenario.Delay{Cycles: 10_000}
	}
	alone := cyclesOf(t, cfg, unionProbe("close", false, delay))
	withSiblings := cyclesOf(t, cfg, unionProbe("close", true, delay))
	if alone >= withSiblings {
		t.Fatalf("sibling stubs cost no cycles: alone=%d with siblings=%d", alone, withSiblings)
	}
	budget := (alone + withSiblings) / 2
	if got := sweepProbe(t, cfg, unionProbe("close", true, delay), budget); got != core.OutcomeHang {
		t.Errorf("close delay with siblings under budget %d = %s, want %s", budget, got, core.OutcomeHang)
	}
	if got := sweepProbe(t, cfg, unionProbe("close", false, delay), budget); got != core.OutcomeHandled {
		t.Errorf("close delay alone under budget %d = %s, want %s", budget, got, core.OutcomeHandled)
	}
}
