package vm

// RunBreak / mid-execution snapshot equivalence suite: a run stopped at
// a breakpoint, snapshotted, restored and continued must be observably
// identical — registers, flags, memory, call stack, per-process and
// total cycles, exit status, scheduler verdicts — to a run that never
// stopped. This is the correctness foundation of prefix-memoized
// sweeps (internal/core/memo.go).

import (
	"fmt"
	"testing"

	"lfi/internal/isa"
)

// breakLibSrc is the intercept-shaped library: f's entry is the
// breakpoint target (like an interceptor stub's first instruction, it
// cannot block), and each call mutates a global.
const breakLibSrc = `
.lib libbrk.so
.global f
.global gcount
.dataw gcount 0
.func f
  lea r1, gcount
  load r2, [r1+0]
  add r2, 1
  store [r1+0], r2
  mov r0, r2
  ret
`

// breakExeSrc grows the heap mid-run (brk) and then loops: each
// iteration calls f and stores the running count into the mid-Brk heap
// — so a snapshot taken at call N freezes heap state no entry-point
// snapshot ever exercises.
const breakExeSrc = `
.exe breaker
.needs libbrk.so
.extern f
.global main
.func main
  ; brk(0x40000200): grow the heap before the loop
  mov r0, 7
  mov r1, 0x40000200
  syscall
  mov r5, 0
.loop:
  call f
  ; heap[0x40000100 + 4*i] = f() result
  mov r1, r5
  add r1, r1
  add r1, r1
  add r1, 0x40000100
  store [r1+0], r0
  add r5, 1
  cmp r5, 5
  jl .loop
  mov r0, r5
  ret
`

func breakSystem(t testing.TB, opts Options) *System {
	t.Helper()
	sys := NewSystem(opts)
	sys.Register(assembleSrc(t, breakLibSrc))
	sys.Register(assembleSrc(t, breakExeSrc))
	if _, err := sys.Spawn("breaker", SpawnConfig{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func breakTargetVA(t testing.TB, sys *System, image, symbol string) uint32 {
	t.Helper()
	im, ok := sys.procs[0].ImageByName(image)
	if !ok {
		t.Fatalf("no image %s", image)
	}
	va, ok := im.SymbolVA(symbol)
	if !ok {
		t.Fatalf("no symbol %s in %s", symbol, image)
	}
	return va
}

// TestRunBreakEquivalence: break at the N-th arrival, snapshot, restore
// and finish — full machine state must match an unbroken run, for both
// engines, across slice widths that put the breakpoint at every
// position inside a slice, for early/middle/last arrivals.
func TestRunBreakEquivalence(t *testing.T) {
	for _, engine := range []string{EngineStep, EngineBlock} {
		for _, slice := range []int{1, 3, 7, 4096} {
			for _, target := range []int32{1, 3, 5} {
				name := fmt.Sprintf("%s/slice%d/call%d", engine, slice, target)
				t.Run(name, func(t *testing.T) {
					opts := Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 13}
					ref := breakSystem(t, opts)
					if err := ref.Run(0); err != nil {
						t.Fatalf("reference run: %v", err)
					}

					sys := breakSystem(t, opts)
					va := breakTargetVA(t, sys, "libbrk.so", "f")
					hit, err := sys.RunBreak(va, target, 0)
					if err != nil || !hit {
						t.Fatalf("RunBreak(call %d) = (%v, %v), want hit", target, hit, err)
					}
					if pc := sys.procs[0].PC; pc != va {
						t.Fatalf("stopped at pc=%#x, want %#x", pc, va)
					}
					// The instruction at va has not executed: f has run
					// target-1 times.
					gva := breakTargetVA(t, sys, "libbrk.so", "gcount")
					if g, _ := sys.procs[0].ReadWord(gva); g != target-1 {
						t.Fatalf("gcount at break = %d, want %d", g, target-1)
					}
					snap, err := sys.Snapshot()
					if err != nil {
						t.Fatalf("mid-execution snapshot: %v", err)
					}
					r := snap.Restore()
					if err := r.Run(0); err != nil {
						t.Fatalf("restored run: %v", err)
					}
					if ref.TotalCycles != r.TotalCycles {
						t.Errorf("TotalCycles %d (unbroken) != %d (restored)", ref.TotalCycles, r.TotalCycles)
					}
					compareProcs(t, 0, ref.procs[0], r.procs[0])

					// The broken system itself (not just a restore) also
					// finishes identically.
					if err := sys.Run(0); err != nil {
						t.Fatalf("broken system continue: %v", err)
					}
					if ref.TotalCycles != sys.TotalCycles {
						t.Errorf("TotalCycles %d (unbroken) != %d (continued)", ref.TotalCycles, sys.TotalCycles)
					}
					compareProcs(t, 1, ref.procs[0], sys.procs[0])
				})
			}
		}
	}
}

// TestRunBreakRestoreIsolation: two restores from one mid-execution
// snapshot run independently — the heap a sibling keeps writing stays
// frozen in the snapshot and in unrun siblings.
func TestRunBreakRestoreIsolation(t *testing.T) {
	sys := breakSystem(t, Options{StackSize: 1 << 13})
	va := breakTargetVA(t, sys, "libbrk.so", "f")
	if hit, err := sys.RunBreak(va, 3, 0); err != nil || !hit {
		t.Fatalf("RunBreak = (%v, %v)", hit, err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, b := snap.Restore(), snap.Restore()
	if err := a.Run(0); err != nil {
		t.Fatal(err)
	}
	// a finished the loop: heap slot 4 written. b is still frozen at
	// call 3: slots 2+ untouched (two iterations completed pre-break).
	if w, _ := a.procs[0].ReadWord(0x4000_0100 + 4*4); w != 5 {
		t.Errorf("finished sibling heap[4] = %d, want 5", w)
	}
	if w, _ := b.procs[0].ReadWord(0x4000_0100 + 4*2); w != 0 {
		t.Errorf("frozen sibling heap[2] = %d, want 0", w)
	}
	if err := b.Run(0); err != nil {
		t.Fatal(err)
	}
	compareProcs(t, 0, a.procs[0], b.procs[0])
}

// TestRunBreakBudgetPhase sweeps budgets across the whole run: the
// broken-and-restored system must return the same verdict (ErrBudget or
// nil) at the same TotalCycles as the unbroken run for every budget —
// the resumed partial round must land budget checks on identical slice
// boundaries.
func TestRunBreakBudgetPhase(t *testing.T) {
	for _, slice := range []int{4, 16} {
		opts := Options{TimeSlice: slice, StackSize: 1 << 13}
		full := breakSystem(t, opts)
		if err := full.Run(0); err != nil {
			t.Fatal(err)
		}
		total := full.TotalCycles
		for budget := uint64(30); budget <= total+10; budget += 7 {
			ref := breakSystem(t, opts)
			refErr := ref.Run(budget)

			sys := breakSystem(t, opts)
			va := breakTargetVA(t, sys, "libbrk.so", "f")
			hit, err := sys.RunBreak(va, 3, budget)
			if !hit {
				// Budget ran out before the third call: verdict and cycle
				// count must match the plain run's.
				if err != refErr || sys.TotalCycles != ref.TotalCycles {
					t.Errorf("slice=%d budget=%d: no-hit (%v, %d), plain run (%v, %d)",
						slice, budget, err, sys.TotalCycles, refErr, ref.TotalCycles)
				}
				continue
			}
			snap, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r := snap.Restore()
			gotErr := r.Run(budget)
			if gotErr != refErr || r.TotalCycles != ref.TotalCycles {
				t.Errorf("slice=%d budget=%d: restored (%v, %d), plain run (%v, %d)",
					slice, budget, gotErr, r.TotalCycles, refErr, ref.TotalCycles)
			}
		}
	}
}

// TestRunBreakNotReached: when the run finishes before the target
// arrival, RunBreak reports no hit with Run-identical final state.
func TestRunBreakNotReached(t *testing.T) {
	ref := breakSystem(t, Options{StackSize: 1 << 13})
	if err := ref.Run(0); err != nil {
		t.Fatal(err)
	}
	sys := breakSystem(t, Options{StackSize: 1 << 13})
	va := breakTargetVA(t, sys, "libbrk.so", "f")
	hit, err := sys.RunBreak(va, 99, 0)
	if hit || err != nil {
		t.Fatalf("RunBreak(call 99) = (%v, %v), want clean finish", hit, err)
	}
	if ref.TotalCycles != sys.TotalCycles {
		t.Errorf("TotalCycles %d != %d", ref.TotalCycles, sys.TotalCycles)
	}
	compareProcs(t, 0, ref.procs[0], sys.procs[0])

	if _, err := sys.RunBreak(va, 0, 0); err == nil {
		t.Error("RunBreak(target 0) should reject")
	}
}

// Multi-process break: the parent blocks on a half-full pipe, a kid is
// mid-flight, and the breakpoint lands between the parent's two reads —
// the mid-execution snapshot must carry in-flight pipe bytes, the
// blocked/runnable states and the partial scheduler round.
const breakKidSrc = `
.exe kid
.global main
.dataw w0 0x64636261
.dataw w1 0x68676665
.func main
  ; write 8 bytes to fd 1 (inherited pipe end), then exit 33
  lea r2, w0
  mov r0, 3
  mov r1, 1
  mov r3, 8
  syscall
  mov r0, 1
  mov r1, 33
  syscall
`

const breakParentSrc = `
.exe parent
.global main
.global helper
.datab prog "kid"
.data fds 8
.data buf 16
.data st 4
.func helper
  ; marker between the two reads: the breakpoint target
  mov r5, 0x7e57
  ret
.func main
  ; pipe(fds)
  mov r0, 6
  lea r1, fds
  syscall
  ; spawn("kid", wfd -> kid fd1)
  mov r0, 8
  lea r1, prog
  mov r2, 0
  lea r3, fds
  load r3, [r3+4]
  syscall
  mov r4, r0
  ; read(rfd, buf, 4): may block until the kid writes
  mov r0, 2
  lea r1, fds
  load r1, [r1+0]
  lea r2, buf
  mov r3, 4
  syscall
  call helper
  ; read(rfd, buf+4, 4): the other half stays in flight across the break
  mov r0, 2
  lea r1, fds
  load r1, [r1+0]
  lea r2, buf
  add r2, 4
  mov r3, 4
  syscall
  ; wait(pid, &st)
  mov r0, 9
  mov r1, r4
  lea r2, st
  syscall
  lea r1, st
  load r0, [r1+0]
  ret
`

func TestRunBreakMultiProcess(t *testing.T) {
	for _, engine := range []string{EngineStep, EngineBlock} {
		for _, slice := range []int{1, 2, 5, 4096} {
			t.Run(fmt.Sprintf("%s/slice%d", engine, slice), func(t *testing.T) {
				mk := func() *System {
					sys := NewSystem(Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 13})
					sys.Register(assembleSrc(t, breakKidSrc))
					sys.Register(assembleSrc(t, breakParentSrc))
					if _, err := sys.Spawn("parent", SpawnConfig{}); err != nil {
						t.Fatal(err)
					}
					return sys
				}
				ref := mk()
				if err := ref.Run(0); err != nil {
					t.Fatalf("reference run: %v", err)
				}
				if code := ref.procs[0].Status.Code; code != 33 {
					t.Fatalf("reference exit = %d, want kid status 33", code)
				}

				sys := mk()
				va := breakTargetVA(t, sys, "parent", "helper")
				hit, err := sys.RunBreak(va, 1, 0)
				if err != nil || !hit {
					t.Fatalf("RunBreak = (%v, %v), want hit", hit, err)
				}
				snap, err := sys.Snapshot()
				if err != nil {
					t.Fatalf("mid-execution snapshot: %v", err)
				}
				r := snap.Restore()
				if err := r.Run(0); err != nil {
					t.Fatalf("restored run: %v", err)
				}
				if ref.TotalCycles != r.TotalCycles {
					t.Errorf("TotalCycles %d (unbroken) != %d (restored)", ref.TotalCycles, r.TotalCycles)
				}
				if len(ref.procs) != len(r.procs) {
					t.Fatalf("proc count %d != %d", len(ref.procs), len(r.procs))
				}
				for i := range ref.procs {
					compareProcs(t, i, ref.procs[i], r.procs[i])
				}
			})
		}
	}
}

// compareSystems asserts identical full machine state: total cycles,
// every process, and the scheduler's recorded mid-round position.
func compareSystems(t testing.TB, label string, a, b *System) {
	t.Helper()
	if a.TotalCycles != b.TotalCycles {
		t.Fatalf("%s: TotalCycles %d != %d", label, a.TotalCycles, b.TotalCycles)
	}
	if len(a.procs) != len(b.procs) {
		t.Fatalf("%s: proc count %d != %d", label, len(a.procs), len(b.procs))
	}
	for i := range a.procs {
		compareProcs(t, i, a.procs[i], b.procs[i])
	}
	if (a.resume == nil) != (b.resume == nil) || a.resume != nil && *a.resume != *b.resume {
		t.Fatalf("%s: resume position %+v != %+v", label, a.resume, b.resume)
	}
}

// restored returns a fresh system restored from a snapshot of sys.
func restored(t testing.TB, sys *System) *System {
	t.Helper()
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap.Restore()
}

func pipeSystem(t testing.TB, opts Options) *System {
	t.Helper()
	sys := NewSystem(opts)
	sys.Register(assembleSrc(t, breakKidSrc))
	sys.Register(assembleSrc(t, breakParentSrc))
	if _, err := sys.Spawn("parent", SpawnConfig{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRunBreakChained: a RunBreak on a system restored from a break
// snapshot must finish the interrupted round before starting fresh
// ones, so a second break followed by Run(budget) lands every verdict
// and every cycle exactly where an unbroken Run(budget) does.
func TestRunBreakChained(t *testing.T) {
	type guest struct {
		name          string
		mk            func(testing.TB, Options) *System
		image, symbol string
		first, second int32
	}
	guests := []guest{
		{"single", breakSystem, "libbrk.so", "f", 2, 3},
		// The parent calls helper once: the second break re-hits the
		// parked arrival (1) or runs the guest to completion (2).
		{"pipe-rehit", pipeSystem, "parent", "helper", 1, 1},
		{"pipe-finish", pipeSystem, "parent", "helper", 1, 2},
	}
	for _, g := range guests {
		for _, engine := range []string{EngineStep, EngineBlock} {
			for _, slice := range []int{1, 3, 7, 4096} {
				t.Run(fmt.Sprintf("%s/%s/slice%d", g.name, engine, slice), func(t *testing.T) {
					opts := Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 13}
					full := g.mk(t, opts)
					if err := full.Run(0); err != nil {
						t.Fatal(err)
					}
					for budget := uint64(0); budget <= full.TotalCycles+2; budget++ {
						ref := g.mk(t, opts)
						refErr := ref.Run(budget)

						sys := g.mk(t, opts)
						va := breakTargetVA(t, sys, g.image, g.symbol)
						if hit, err := sys.RunBreak(va, g.first, budget); !hit {
							if err != refErr {
								t.Fatalf("budget %d: first break (%v), plain run (%v)", budget, err, refErr)
							}
							compareSystems(t, fmt.Sprintf("budget %d first break", budget), ref, sys)
							continue
						}
						r := restored(t, sys)
						if hit, err := r.RunBreak(va, g.second, budget); !hit {
							if err != refErr {
								t.Fatalf("budget %d: second break (%v), plain run (%v)", budget, err, refErr)
							}
							compareSystems(t, fmt.Sprintf("budget %d second break", budget), ref, r)
							continue
						}
						if err := r.Run(budget); err != refErr {
							t.Fatalf("budget %d: chained run (%v), plain run (%v)", budget, err, refErr)
						}
						compareSystems(t, fmt.Sprintf("budget %d chained", budget), ref, r)
					}
				})
			}
		}
	}
}

// TestRunBreakChainedCounting: a second RunBreak counts arrivals from
// its own start, the parked arrival first — breaking at call 2 and
// then at 3 stops exactly where one break at call 4 does.
func TestRunBreakChainedCounting(t *testing.T) {
	for _, engine := range []string{EngineStep, EngineBlock} {
		for _, slice := range []int{1, 3, 7, 4096} {
			opts := Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 13}
			one := breakSystem(t, opts)
			va := breakTargetVA(t, one, "libbrk.so", "f")
			if hit, err := one.RunBreak(va, 4, 0); !hit || err != nil {
				t.Fatalf("%s/slice%d: RunBreak(4) = (%v, %v)", engine, slice, hit, err)
			}
			two := breakSystem(t, opts)
			if hit, err := two.RunBreak(va, 2, 0); !hit || err != nil {
				t.Fatalf("%s/slice%d: RunBreak(2) = (%v, %v)", engine, slice, hit, err)
			}
			two = restored(t, two)
			if hit, err := two.RunBreak(va, 3, 0); !hit || err != nil {
				t.Fatalf("%s/slice%d: chained RunBreak(3) = (%v, %v)", engine, slice, hit, err)
			}
			compareSystems(t, fmt.Sprintf("%s/slice%d", engine, slice), one, two)
		}
	}
}

// Two processes sharing libbrk.so (so f has one VA in both): the
// parent calls f once, spawns the kid and waits; the kid calls f
// twice; the parent calls f again after the kid exits.
const twinKidSrc = `
.exe twinkid
.needs libbrk.so
.extern f
.global main
.func main
  call f
  call f
  ret
`

const twinParentSrc = `
.exe twin
.needs libbrk.so
.extern f
.global main
.datab prog "twinkid"
.data st 4
.func main
  call f
  mov r0, 8
  lea r1, prog
  mov r2, 0
  mov r3, 1
  syscall
  mov r4, r0
  mov r0, 9
  mov r1, r4
  lea r2, st
  syscall
  call f
  ret
`

// TestRunBreakPerProcessArrivals: arrivals count per process, like the
// controller's per-PID trigger evaluators. RunBreak(f, 2) stops in the
// kid at its own second call — not at the kid's first call, which is
// the second arrival system-wide — and RunBreak(f, 3) is never reached
// because no process calls f three times.
func TestRunBreakPerProcessArrivals(t *testing.T) {
	for _, engine := range []string{EngineStep, EngineBlock} {
		for _, slice := range []int{1, 3, 4096} {
			t.Run(fmt.Sprintf("%s/slice%d", engine, slice), func(t *testing.T) {
				mk := func() *System {
					sys := NewSystem(Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 13})
					sys.Register(assembleSrc(t, breakLibSrc))
					sys.Register(assembleSrc(t, twinKidSrc))
					sys.Register(assembleSrc(t, twinParentSrc))
					if _, err := sys.Spawn("twin", SpawnConfig{}); err != nil {
						t.Fatal(err)
					}
					return sys
				}
				ref := mk()
				if err := ref.Run(0); err != nil {
					t.Fatal(err)
				}

				sys := mk()
				va := breakTargetVA(t, sys, "libbrk.so", "f")
				gva := breakTargetVA(t, sys, "libbrk.so", "gcount")
				hit, err := sys.RunBreak(va, 2, 0)
				if !hit || err != nil {
					t.Fatalf("RunBreak(2) = (%v, %v), want hit", hit, err)
				}
				if len(sys.procs) != 2 {
					t.Fatalf("%d processes at the break, want 2", len(sys.procs))
				}
				kid := sys.procs[1]
				if kid.PC != va || sys.resume.procIdx != 1 {
					t.Fatalf("stopped in proc %d (kid pc=%#x), want the kid at %#x", sys.resume.procIdx, kid.PC, va)
				}
				for i, want := range []int32{1, 1} {
					if g, _ := sys.procs[i].ReadWord(gva); g != want {
						t.Errorf("proc %d gcount at break = %d, want %d", i, g, want)
					}
				}
				r := restored(t, sys)
				if err := r.Run(0); err != nil {
					t.Fatal(err)
				}
				compareSystems(t, "restored after break", ref, r)

				sys = mk()
				if hit, err := sys.RunBreak(va, 3, 0); hit || err != nil {
					t.Fatalf("RunBreak(3) = (%v, %v), want no hit", hit, err)
				}
				compareSystems(t, "unreached break", ref, sys)
			})
		}
	}
}

// The break differential guest: g and sum live in the library, bump
// and main in the executable, so breakpoints land in either image and
// the block engine dispatches superblocks in the other.
const diffLibSrc = `
.lib libdiff.so
.global g
.global sum
.dataw gacc 0
.func g
  lea r1, gacc
  load r2, [r1+0]
  add r2, r0
  store [r1+0], r2
  mov r0, r2
  ret
.func sum
  mov r2, 0
.top:
  add r2, r0
  sub r0, 1
  cmp r0, 0
  jg .top
  mov r0, r2
  ret
`

const diffExeSrc = `
.exe differ
.needs libdiff.so
.extern g
.extern sum
.global main
.global bump
.func bump
  add r4, 1
  ret
.func main
  mov r5, 0
.loop:
  mov r0, r5
  call g
  call bump
  mov r0, 4
  call sum
  add r5, 1
  cmp r5, 6
  jl .loop
  mov r0, r4
  ret
`

// TestRunBreakEngineDifferential: RunBreak stops at identical full
// machine state under both engines — registers, memory, call stacks,
// cycles and the recorded scheduler position — for breakpoints reached
// by a cross-image call, a local call, a chained backward branch to a
// loop head (in either image) and straight-line fall-through to a
// non-leader, at every slice width; and both continue identically.
func TestRunBreakEngineDifferential(t *testing.T) {
	targets := []struct {
		name          string
		image, symbol string
		off           uint32 // instructions past the symbol
		calls         []int32
	}{
		{"cross-image-call", "libdiff.so", "g", 0, []int32{1, 3, 6, 7}},
		{"local-call", "differ", "bump", 0, []int32{1, 4, 6, 7}},
		{"lib-loop-head", "libdiff.so", "sum", 1, []int32{1, 2, 5, 24, 25}},
		{"exe-loop-head", "differ", "main", 1, []int32{1, 2, 6, 7}},
		{"fall-through", "libdiff.so", "g", 1, []int32{1, 2, 6, 7}},
	}
	mk := func(t *testing.T, engine string, slice int) *System {
		sys := NewSystem(Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 13})
		sys.Register(assembleSrc(t, diffLibSrc))
		sys.Register(assembleSrc(t, diffExeSrc))
		if _, err := sys.Spawn("differ", SpawnConfig{}); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	for _, tg := range targets {
		for _, slice := range []int{1, 3, 7, 4096} {
			for _, call := range tg.calls {
				t.Run(fmt.Sprintf("%s/slice%d/call%d", tg.name, slice, call), func(t *testing.T) {
					ref := mk(t, EngineStep, slice)
					if err := ref.Run(0); err != nil {
						t.Fatal(err)
					}
					step, block := mk(t, EngineStep, slice), mk(t, EngineBlock, slice)
					va := breakTargetVA(t, step, tg.image, tg.symbol) + tg.off*isa.Size
					hitS, errS := step.RunBreak(va, call, 0)
					hitB, errB := block.RunBreak(va, call, 0)
					if hitS != hitB || errS != errB {
						t.Fatalf("step (%v, %v) != block (%v, %v)", hitS, errS, hitB, errB)
					}
					// The last call of each list lies past the guest's
					// final arrival; every other one must hit.
					if wantHit := call != tg.calls[len(tg.calls)-1]; hitS != wantHit {
						t.Fatalf("hit = %v, want %v", hitS, wantHit)
					}
					if hitS && step.procs[0].PC != va {
						t.Fatalf("stopped at pc=%#x, want %#x", step.procs[0].PC, va)
					}
					compareSystems(t, "at break", step, block)
					if err := step.Run(0); err != nil {
						t.Fatal(err)
					}
					if err := block.Run(0); err != nil {
						t.Fatal(err)
					}
					compareSystems(t, "continued (step)", ref, step)
					compareSystems(t, "continued (block)", ref, block)
				})
			}
		}
	}
}
