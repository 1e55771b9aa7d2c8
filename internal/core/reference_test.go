package core_test

import (
	"sync"
	"testing"

	"lfi/internal/core"
)

// freshSweep is the fresh-spawn reference the sweep executor is checked
// against: every experiment runs in its own NewCampaign, whose
// interceptor library stubs only that experiment's functions, and is
// classified with core.Classify against an uninstrumented baseline.
// Only opts.Workers and opts.MaxCrashes apply; the budget is the
// default.
//
// The executor instead instruments every run with the union of the
// sweep's functions. The two agree on call-keyed matrices, where every
// trigger keys on calls and no run comes near the budget. A <cycles>
// window or a tight budget also sees the sibling stubs' cycles, so
// there the executor's report is the sweep's own and this reference
// does not apply (TestSweepUnionSurfaceSemantics pins that case).
func freshSweep(t testing.TB, cfg core.CampaignConfig, exps []core.Experiment, opts core.SweepOptions) *core.SweepResult {
	t.Helper()
	run := func(c core.CampaignConfig) (*core.Report, error) {
		camp, err := core.NewCampaign(c)
		if err != nil {
			return nil, err
		}
		return camp.Run(core.DefaultSweepBudget)
	}
	baseCfg := cfg
	baseCfg.Plan, baseCfg.Compiled = nil, nil
	base, err := run(baseCfg)
	if err != nil {
		t.Fatalf("reference baseline: %v", err)
	}
	entries := make([]core.SweepEntry, len(exps))
	errs := make([]error, len(exps))
	next := make(chan int)
	go func() {
		for i := range exps {
			next <- i
		}
		close(next)
	}()
	var wg sync.WaitGroup
	for w := 0; w < max(opts.Workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				exp := &exps[i]
				runCfg := cfg
				runCfg.Plan, runCfg.Compiled = exp.Plan, exp.Compiled
				rep, err := run(runCfg)
				if err != nil {
					errs[i] = err
					continue
				}
				entries[i] = core.SweepEntry{
					Library: exp.Library, Function: exp.Function, Retval: exp.Retval,
					Errno: exp.Errno, HasErrno: exp.HasErrno, Fault: exp.Fault,
					Outcome:  core.Classify(rep, base.Status.Code),
					ExitCode: rep.Status.Code, Signal: rep.Status.Signal,
				}
			}
		}()
	}
	wg.Wait()
	res := &core.SweepResult{Executable: cfg.Executable, Baseline: base.Status.Code}
	crashes := 0
	for i, e := range entries {
		if errs[i] != nil {
			t.Fatalf("reference experiment %d: %v", i, errs[i])
		}
		res.Entries = append(res.Entries, e)
		if e.Outcome == core.OutcomeCrash {
			crashes++
		}
		if opts.MaxCrashes > 0 && crashes >= opts.MaxCrashes {
			break
		}
	}
	return res
}
