package core

import (
	"fmt"
	"sort"

	"lfi/internal/kernel"
	"lfi/internal/profile"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// Availability classification: the service-level outcome taxonomy for
// traffic-driven server campaigns.
//
// The five process-shaped Outcomes (crash/hang/error-exit/handled/
// not-triggered) describe what happened to the process; for server
// guests the question that matters is what happened to the *service* —
// did it keep answering requests, degrade, recover, or wedge after the
// fault cleared? A traffic-driven campaign spawns a synthetic client
// (internal/apps.AvailClientSource) that pumps a three-phase request
// stream — warmup, steady state (the fault fires mid-stream via a
// <calls after=N> window), post-fault probe — entirely on the VM's
// deterministic cycle clock, and tallies per-phase successes and
// failures into guest globals. With CampaignConfig.Avail set, every
// run's report collects those counters (Report.Avail) and the sweep
// classifier folds them, together with the clean baseline's, into an
// AvailClass per experiment.

// AvailClass is the availability outcome of one traffic-driven run.
type AvailClass string

// Availability classes, ordered from best to worst. Classification
// precedence is the reverse: crashed, wedged, lost, degraded, recovered.
const (
	// AvailRecovered: every post-fault probe request succeeded and
	// total run latency (in virtual cycles) stayed within the baseline
	// envelope — the service absorbed the fault.
	AvailRecovered AvailClass = "recovered"
	// AvailDegraded: the service kept answering but below baseline —
	// post-fault requests still failing at the end of the probe window,
	// or run latency elevated beyond the LatencyPct envelope.
	AvailDegraded AvailClass = "degraded"
	// AvailLost: requests were dropped after the fault but the tail of
	// the probe window was clean — an outage, then full restoration.
	AvailLost AvailClass = "lost"
	// AvailWedged: the client never completed its phases (the run hung
	// or ran out of budget mid-traffic) or not a single post-fault
	// request succeeded — the server stopped answering without dying.
	AvailWedged AvailClass = "wedged"
	// AvailCrashed: the server (or the client) died on a signal.
	AvailCrashed AvailClass = "crashed"
)

// DefaultAvailLatencyPct is the latency envelope when AvailSpec leaves
// LatencyPct zero: a completed run whose total virtual cycles exceed
// the baseline's by more than 25% classifies as degraded even when
// every request succeeded. The margin is far above the executor noise
// floor (the sweep's shared stub surface adds well under 1% cycles), so
// classes agree across engines, worker counts and memo settings.
const DefaultAvailLatencyPct = 25

// AvailDelaySlowCycles is the moderate injected latency of the
// availability fault matrix: large against a clean traffic run (a few
// million cycles) so the latency envelope trips, small against the
// default budget so the run still completes — the degraded-by-latency
// row. AvailDelayWedgeCycles stalls past the whole default budget: the
// delayed call never returns and the run wedges mid-traffic.
const (
	AvailDelaySlowCycles  = 30_000_000
	AvailDelayWedgeCycles = DefaultSweepBudget
)

// AvailSpec opts a campaign into availability collection: the traffic
// client's program name (whose av_* globals carry the phase counters)
// and the latency envelope. CampaignConfig.Avail carries it; nil keeps
// reports and sweeps exactly as before.
type AvailSpec struct {
	// Client is the traffic driver's program name — the spawned
	// executable whose image exports the av_* counter globals
	// (apps.AvailClientName gives the conventional name).
	Client string
	// LatencyPct widens or tightens the degraded-latency envelope;
	// 0 means DefaultAvailLatencyPct.
	LatencyPct int
}

func (s *AvailSpec) latencyPct() int {
	if s.LatencyPct > 0 {
		return s.LatencyPct
	}
	return DefaultAvailLatencyPct
}

// AvailCounters are one run's service-level tallies, read from the
// traffic client's guest globals after the run ends. Each phase splits
// its requests three ways: OK (served), Err (the server answered with
// an error status — up but failing), Fail (never answered: connect
// exhaustion, send failure, EOF before a reply). TailFail counts
// non-served requests in the final AvailTail probes — the restoration
// check that separates a transient outage from lasting damage.
type AvailCounters struct {
	WarmOK, WarmFail, WarmErr       int32
	SteadyOK, SteadyFail, SteadyErr int32
	PostOK, PostFail, PostErr       int32
	TailFail                        int32
	// Done is the client's end-of-phases marker: false means the run
	// terminated (budget, deadlock, crash) before the probe finished.
	Done bool
	// ServerSignal is the first non-zero death signal among the
	// non-client processes (server master or worker); 0 when all of
	// them exited cleanly or were still alive at end of run.
	ServerSignal int32
}

// availSymbols maps AvailCounters fields to the client globals the
// generated traffic driver exports.
var availSymbols = []string{
	"av_warm_ok", "av_warm_fail", "av_warm_err",
	"av_steady_ok", "av_steady_fail", "av_steady_err",
	"av_post_ok", "av_post_fail", "av_post_err",
	"av_tail_fail", "av_done",
}

// collectAvail reads the availability counters out of a finished run:
// the phase tallies from the client's globals (the client is the
// spawned executable, process 0; exited processes keep their memory)
// and the server's death signal from every other process.
func collectAvail(sys *vm.System, spec *AvailSpec) *AvailCounters {
	c := &AvailCounters{}
	procs := sys.Procs()
	if len(procs) == 0 {
		return c
	}
	client := procs[0]
	if im, ok := client.ImageByName(spec.Client); ok {
		vals := make([]int32, len(availSymbols))
		for i, sym := range availSymbols {
			if va, ok := im.SymbolVA(sym); ok {
				if v, err := client.ReadWord(va); err == nil {
					vals[i] = v
				}
			}
		}
		c.WarmOK, c.WarmFail, c.WarmErr = vals[0], vals[1], vals[2]
		c.SteadyOK, c.SteadyFail, c.SteadyErr = vals[3], vals[4], vals[5]
		c.PostOK, c.PostFail, c.PostErr = vals[6], vals[7], vals[8]
		c.TailFail = vals[9]
		c.Done = vals[10] == 1
	}
	for _, p := range procs[1:] {
		if p.Status.Signal != 0 {
			c.ServerSignal = p.Status.Signal
			break
		}
	}
	return c
}

// ClassifyAvail folds one run's availability counters, against the
// clean baseline's report, into the five-class taxonomy. Precedence is
// worst-first: a crashed server is crashed even if traffic limped on;
// an incomplete client is wedged regardless of its partial tallies.
// The latency check compares whole-run virtual cycles against the
// baseline within the latencyPct envelope — wall time never enters.
func ClassifyAvail(rep, base *Report, latencyPct int) AvailClass {
	c := rep.Avail
	if c == nil {
		return AvailWedged
	}
	switch {
	case c.ServerSignal != 0 || rep.Status.Signal != 0:
		return AvailCrashed
	case !c.Done || c.PostOK+c.PostErr == 0:
		// The client never finished, or not one probe got any answer —
		// the server stopped answering without dying.
		return AvailWedged
	case c.PostFail+c.PostErr > 0 && c.TailFail == 0:
		// Requests were dropped or errored after the fault, but the tail
		// of the probe window is clean: an outage, then restoration.
		return AvailLost
	case c.PostFail+c.PostErr > 0:
		return AvailDegraded
	case rep.Cycles*100 > base.Cycles*uint64(100+latencyPct):
		return AvailDegraded
	default:
		return AvailRecovered
	}
}

// AvailabilityExperiments expands a profile set into the availability
// fault matrix: for every profiled function, one experiment per error
// code plus the four degradation models (moderate delay, budget-length
// delay, disk-full, fd-saturation), each firing once mid-steady-state
// via a <calls after=N> window — the paper-style comparison of
// one-shot errors against persistent resource faults on a serving
// guest. after is the fire window (calls to skip before the fault
// becomes eligible; apps.AvailAfter places it mid-steady-state for the
// generated traffic clients). The order is deterministic and the
// triggers are call-keyed, so availability sweeps shard, resume and
// memoize like every other matrix.
func AvailabilityExperiments(set profile.Set, after int32) []Experiment {
	var out []Experiment
	libs := make([]string, 0, len(set))
	for lib := range set {
		libs = append(libs, lib)
	}
	sort.Strings(libs)
	window := func() []scenario.Cond { return []scenario.Cond{scenario.Calls(after, 0, 0)} }
	for _, lib := range libs {
		for _, fn := range set[lib].Functions {
			for _, ec := range fn.ErrorCodes {
				exp := Experiment{Library: lib, Function: fn.Name, Retval: ec.Retval}
				// Inject stays 0: the <calls> window alone decides the
				// fire site (Inject=1 would demand the first call AND a
				// call past the window — unsatisfiable together).
				trigger := scenario.Trigger{
					Function: fn.Name,
					Retval:   fmt.Sprint(ec.Retval),
					Once:     true,
					Conds:    window(),
				}
				if errno, ok := errnoSideEffect(ec); ok {
					exp.HasErrno = true
					exp.Errno = errno
					trigger.Errno = errnoLabel(errno)
				}
				exp.Plan = &scenario.Plan{Triggers: []scenario.Trigger{trigger}}
				if cp, err := scenario.Compile(exp.Plan, set); err == nil {
					exp.Compiled = cp
				}
				out = append(out, exp)
			}
			models := []struct {
				label   string
				trigger scenario.Trigger
			}{
				{
					label: fmt.Sprintf("delay=%d", AvailDelaySlowCycles),
					trigger: scenario.Trigger{
						Function: fn.Name, Once: true, Conds: window(),
						Delay: &scenario.Delay{Cycles: AvailDelaySlowCycles},
					},
				},
				{
					label: fmt.Sprintf("delay=%d", AvailDelayWedgeCycles),
					trigger: scenario.Trigger{
						Function: fn.Name, Once: true, Conds: window(),
						Delay: &scenario.Delay{Cycles: AvailDelayWedgeCycles},
					},
				},
				{
					label: "exhaust=disk:after=0",
					trigger: scenario.Trigger{
						Function: fn.Name, Once: true, Conds: window(),
						Exhaust: &scenario.Exhaust{Resource: scenario.ResourceDisk, After: 0},
					},
				},
				{
					label: "exhaust=fds:slots=0",
					trigger: scenario.Trigger{
						Function: fn.Name, Once: true, Conds: window(),
						Exhaust: &scenario.Exhaust{Resource: scenario.ResourceFDs, Slots: 0},
					},
				},
			}
			for _, m := range models {
				exp := Experiment{Library: lib, Function: fn.Name, Fault: m.label}
				exp.Plan = &scenario.Plan{Triggers: []scenario.Trigger{m.trigger}}
				if cp, err := scenario.Compile(exp.Plan, set); err == nil {
					exp.Compiled = cp
				}
				out = append(out, exp)
			}
		}
	}
	return out
}

// errnoSideEffect extracts the TLS-errno side effect of one profiled
// error code, shared by the first-call and windowed generators.
func errnoSideEffect(ec profile.ErrorCode) (int32, bool) {
	for _, se := range ec.SideEffects {
		if se.Type == profile.SideEffectTLS {
			return se.Applied(), true
		}
	}
	return 0, false
}

// errnoLabel renders an errno for a trigger attribute: symbolic name
// when the kernel knows it, decimal otherwise.
func errnoLabel(errno int32) string {
	if name := kernel.ErrnoName(errno); name != "" {
		return name
	}
	return fmt.Sprint(errno)
}
