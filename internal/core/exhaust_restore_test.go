package core_test

import (
	"testing"

	"lfi/internal/apps"
	"lfi/internal/core"
	"lfi/internal/kernel"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// readCounter reads one traffic-client global out of a system's first
// process (the spawned driver).
func readCounter(t *testing.T, sys *vm.System, client, sym string) int32 {
	t.Helper()
	p := sys.Procs()[0]
	im, ok := p.ImageByName(client)
	if !ok {
		t.Fatalf("no image %q", client)
	}
	va, ok := im.SymbolVA(sym)
	if !ok {
		t.Fatalf("no symbol %q", sym)
	}
	v, err := p.ReadWord(va)
	if err != nil {
		t.Fatalf("read %s: %v", sym, err)
	}
	return v
}

// TestExhaustFDsAcceptSnapshotRestore composes <exhaust resource="fds">
// with the serving guest's accept and proves the armed+tripped state
// round-trips through a copy-on-write VM snapshot restore taken
// mid-connection: the fault fires mid-warmup, the starved accept leaves
// the client's connection queued on the backlog, and a snapshot frozen
// at that instant restores to a kernel that is still armed, still
// tripped, and still starving the same connection — ending exactly
// where the unbroken run does.
func TestExhaustFDsAcceptSnapshotRestore(t *testing.T) {
	set := flagshipSet()
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "accept",
		Once:     true,
		Exhaust:  &scenario.Exhaust{Resource: scenario.ResourceFDs, Slots: 0},
		Conds:    []scenario.Cond{scenario.Calls(50, 0, 0)},
	}}}
	cp, err := scenario.Compile(plan, set)
	if err != nil {
		t.Fatal(err)
	}

	type endState struct {
		deg      kernel.DegradationState
		warmOK   int32
		warmFail int32
		done     int32
	}
	cfg := availCfg(t, "minidb")
	cfg.Compiled = cp
	c, err := core.NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := c.System()
	// Step the run in absolute-budget increments until the starved
	// accept trips the degradation — mid-warmup, mid-connection.
	var budget uint64
	for !sys.Kernel().Degradation().FDsTripped {
		budget += 200_000
		if budget > 50_000_000 {
			t.Fatal("fd pressure never tripped")
		}
		if err := sys.Run(budget); err != nil && err != vm.ErrBudget {
			t.Fatalf("run: %v", err)
		}
	}
	want := sys.Kernel().Degradation()
	if !want.FDsArmed || !want.FDsTripped {
		t.Fatalf("trip state = %+v", want)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// finish resumes a run: the accept stays starved, the client stays
	// queued, and the run burns down to its budget — a wedge.
	client := apps.AvailClientName("minidb")
	finish := func(name string, s *vm.System) endState {
		if err := s.Run(budget + 2_000_000); err != vm.ErrBudget {
			t.Fatalf("%s run = %v, want ErrBudget", name, err)
		}
		return endState{
			deg:      s.Kernel().Degradation(),
			warmOK:   readCounter(t, s, client, "av_warm_ok"),
			warmFail: readCounter(t, s, client, "av_warm_fail"),
			done:     readCounter(t, s, client, "av_done"),
		}
	}
	rsys := snap.Restore()
	if got := rsys.Kernel().Degradation(); got != want {
		t.Fatalf("restored degradation = %+v, want %+v", got, want)
	}
	restored := finish("restored", rsys)
	if unbroken := finish("unbroken", sys); restored != unbroken {
		t.Fatalf("restored run diverged from the unbroken one:\nrestored = %+v\nunbroken = %+v", restored, unbroken)
	}
	if !restored.deg.FDsArmed || !restored.deg.FDsTripped {
		t.Fatalf("end degradation = %+v, want armed+tripped", restored.deg)
	}
	if restored.done != 0 {
		t.Fatal("client completed its phases under a starved accept")
	}
	// The fault fired at accept call 51: fifty warmup requests were
	// served before it, none failed fast (the listener stays alive, so
	// the client blocks in recv rather than erroring).
	if restored.warmOK != 50 || restored.warmFail != 0 {
		t.Fatalf("warmup counters = %d ok / %d fail, want 50/0", restored.warmOK, restored.warmFail)
	}
}
