package core_test

// Sweep-report differential for the VM execution engines: the block
// engine must render byte-identical robustness reports to the legacy
// step engine on both the sweep executor and the fresh-spawn reference
// (one NewCampaign per experiment), at 1/4/8 workers, under
// -max-crashes early stops and seeded random faultloads.
// The instruction-level lockstep oracle lives in internal/vm; this is
// the campaign-level end of the same contract — outcome classification,
// cycle budgets and injection logs must be decision-for-decision
// identical.

import (
	"testing"

	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// engineReports runs the same experiment list under both engines and
// returns the rendered reports — from the sweep executor, or from the
// fresh-spawn reference when fresh is set.
func engineReports(t *testing.T, exps []core.Experiment, opts core.SweepOptions, fresh bool) (step, block string) {
	t.Helper()
	run := func(engine string) string {
		cfg, set := mixedTarget(t)
		cfg.VM.Engine = engine
		if fresh {
			cfg.Profiles = set // random triggers draw candidates from the profiles
			return freshSweep(t, cfg, exps, opts).Render()
		}
		res, err := core.RunExperiments(cfg, exps, 0, opts)
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		return res.Render()
	}
	return run(vm.EngineStep), run(vm.EngineBlock)
}

func TestSweepEngineDifferential(t *testing.T) {
	_, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	// Add seeded random faultloads: the probability draws derive from
	// the plan seed, so they too must classify identically.
	for seed := int64(1); seed <= 3; seed++ {
		exps = append(exps, core.Experiment{
			Library:  libc.Name,
			Function: "read",
			Retval:   -1,
			Plan: &scenario.Plan{Seed: seed, Triggers: []scenario.Trigger{{
				Function: "read", Probability: 60, Random: true,
			}}},
		})
	}
	for _, fresh := range []bool{true, false} {
		for _, workers := range []int{1, 4, 8} {
			name := map[bool]string{true: "fresh", false: "snapshot"}[fresh]
			t.Run(name+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				step, block := engineReports(t, exps, core.SweepOptions{Workers: workers}, fresh)
				if step != block {
					t.Errorf("reports differ:\n--- step ---\n%s--- block ---\n%s", step, block)
				}
			})
		}
	}
}

func TestSweepEngineDifferentialMaxCrashes(t *testing.T) {
	_, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	for _, fresh := range []bool{true, false} {
		name := map[bool]string{true: "fresh", false: "snapshot"}[fresh]
		t.Run(name, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 4, 8} {
				step, block := engineReports(t, exps, core.SweepOptions{
					Workers: workers, MaxCrashes: 1,
				}, fresh)
				if step != block {
					t.Fatalf("workers=%d: early-stopped reports differ:\n--- step ---\n%s--- block ---\n%s",
						workers, step, block)
				}
				if want == "" {
					want = step
				} else if step != want {
					t.Fatalf("workers=%d: report varies with worker count", workers)
				}
			}
		})
	}
}

// TestSweepEngineCycleParity pins the strictest observable: per-run
// virtual cycle counts (what <cycles> windows, ErrBudget hangs and the
// profiler's charging key on) must match exactly, not just outcomes.
func TestSweepEngineCycleParity(t *testing.T) {
	cfg, _ := mixedTarget(t)
	run := func(engine string) (uint64, int32) {
		runCfg := cfg
		runCfg.VM.Engine = engine
		runCfg.Plan = &scenario.Plan{Triggers: []scenario.Trigger{{
			Function: "read", Inject: 1, Retval: "-1", Errno: "EIO",
		}}}
		c, err := core.NewCampaign(runCfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cycles, rep.Status.Code
	}
	sc, scode := run(vm.EngineStep)
	bc, bcode := run(vm.EngineBlock)
	if sc != bc || scode != bcode {
		t.Errorf("step (cycles=%d exit=%d) != block (cycles=%d exit=%d)", sc, scode, bc, bcode)
	}
	if sc == 0 {
		t.Error("no cycles recorded")
	}
}
