package vm_test

// Differential tests for observed execution. Run executes an observed
// stretch through Step, so what these tests pin is everything that crosses a
// boundary between Step and the hook-free fast loop — an observer attached or
// detached by a host call, a Fire or a fire point, a budget changed from
// inside either — against the pure Step reference (RunStepped), and the
// inline CountHook against the closure formulation of the same counting:
// same traps, cycles, InstrCount and fault records. The sweeps cover all 14
// workloads (a subset under -short, which the CI race job runs).

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/llfi"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/vx"
	"repro/internal/workloads"
)

// obsHash folds one hook observation into a running FNV-1a hash: the pc,
// the instruction count and cycle total at observation time, and the opcode.
// Equal hashes over equal call counts pin the full observation sequence
// without buffering millions of entries.
func obsHash(h uint64, pc int32, instrs, cycles int64, op vx.Op) uint64 {
	const prime = 1099511628211
	for _, v := range [4]uint64{uint64(uint32(pc)), uint64(instrs), uint64(cycles), uint64(op)} {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xFF
			h *= prime
		}
	}
	return h
}

func diffApps(t *testing.T) []string {
	if testing.Short() {
		return []string{"HPCCG", "CG", "DC"}
	}
	return workloads.Names()
}

// TestCountHookMatchesClosureHook pins the inline CountHook — bitmap lookup,
// PerInstr surcharge, counter — to the closure formulation of PINFI's
// whole-run counting instrumentation, which evaluates the population
// predicate and charges the callback on every instruction: same population
// count, same cycle surcharges, same final state.
func TestCountHookMatchesClosureHook(t *testing.T) {
	for _, name := range diffApps(t) {
		bin := buildBin(t, name, campaign.PINFI)
		costs := pinfi.DefaultCosts()
		cfg := bin.Cfg

		// Closure counting on the Step reference path.
		m := bin.NewMachine()
		m.Cycles += costs.JITPerStaticInstr * int64(len(m.Img.Instrs))
		var closureTargets int64
		everyInstr(m, func(mm *vm.Machine, pc int32, in *vm.Inst) {
			mm.Cycles += costs.PerInstr
			if cfg.TargetInst(mm.Img, in) {
				closureTargets++
			}
		})
		m.RunStepped()
		ref := snapshot(m)

		// Inline CountHook with the recording Fire (the production profile).
		fastM := bin.NewMachine()
		fps, golden := pinfi.Profile(fastM, bin.TargetMap(), costs)
		targets := fps.N
		fast := snapshot(fastM)

		if !equalStates(fast, ref) {
			t.Errorf("%s: CountHook profile diverged from closure reference:\nfast: %+v\nref:  %+v", name, fast, ref)
		}
		if targets != closureTargets {
			t.Errorf("%s: CountHook counted %d targets, closure counted %d", name, targets, closureTargets)
		}
		if len(golden) != len(ref.Output) {
			t.Errorf("%s: golden output length %d vs %d", name, len(golden), len(ref.Output))
		}
	}
}

// TestHookedTrialPrefixMatchesStep sweeps counted PINFI trials — observed
// counting prefix, injection, detach, hook-free tail — across a spread of
// dynamic targets, comparing the counted carrier against a stepped reference
// that counts in a closure on every instruction. Records (PC, register, bit)
// must match too: the injection point may not shift by a single dynamic
// instruction.
func TestHookedTrialPrefixMatchesStep(t *testing.T) {
	apps := []string{"HPCCG", "FT"}
	if testing.Short() {
		apps = apps[:1]
	}
	for _, name := range apps {
		bin := buildBin(t, name, campaign.PINFI)
		prof, err := bin.RunProfile(pinfi.DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}
		costs := pinfi.DefaultCosts()
		cfg := bin.Cfg
		for i := 0; i < 16; i++ {
			target := (prof.Targets * int64(i)) / 16

			fastM := bin.NewMachine()
			fastM.Budget = prof.Budget
			var fastRec fault.Record
			pinfi.ArmCounted(fastM, bin.TargetMap(), costs, target, pinfi.Flip(target, fault.NewRNG(uint64(i)*1237), &fastRec))
			fastM.Run()
			fast := snapshot(fastM)

			// Stepped reference: the closure formulation.
			refM := bin.NewMachine()
			refM.Budget = prof.Budget
			refM.Cycles += costs.JITPerStaticInstr * int64(len(refM.Img.Instrs))
			rng := fault.NewRNG(uint64(i) * 1237)
			var refRec fault.Record
			var count int64
			everyInstr(refM, func(mm *vm.Machine, pc int32, in *vm.Inst) {
				mm.Cycles += costs.PerInstr
				if !cfg.TargetInst(mm.Img, in) {
					return
				}
				if count == target {
					outs := in.Outs[:in.NOut]
					op, bit := fault.PickOperandAndBit(rng, outs)
					mm.FlipBit(outs[op], bit)
					refRec = fault.Record{DynIdx: count, PC: pc, Reg: outs[op], Bit: bit, Op: in.Op.String()}
					mm.Count = nil
				}
				count++
			})
			refM.RunStepped()
			ref := snapshot(refM)

			if !equalStates(fast, ref) {
				t.Errorf("%s target %d: trial diverged:\nfast: %+v\nref:  %+v", name, target, fast, ref)
			}
			if fastRec != refRec {
				t.Errorf("%s target %d: fault record diverged: fast %+v ref %+v", name, target, fastRec, refRec)
			}
		}
	}
}

// TestSiteMapsMatchHostCallCounts cross-checks the PC-indexed site maps the
// profile libraries expose against their host-call-counted populations: a
// CountHook over core.SiteMap / llfi.SiteMap must count exactly what the
// control runtime's selInstr / injectFault invocations count. This pins the
// whole chain — instrumentation pass, code generation, runtime protocol,
// count-hook servicing — across layers.
func TestSiteMapsMatchHostCallCounts(t *testing.T) {
	for _, name := range diffApps(t) {
		for _, tc := range []struct {
			tool    campaign.Tool
			siteMap func(*vm.Image) []bool
		}{
			{campaign.REFINE, core.SiteMap},
			{campaign.LLFI, llfi.SiteMap},
		} {
			bin := buildBin(t, name, tc.tool)

			hostM := bin.NewMachine()
			var hostCount int64
			switch tc.tool {
			case campaign.REFINE:
				lib := &core.Lib{Target: -1}
				lib.Bind(hostM)
				hostM.Run()
				hostCount = lib.Count
			case campaign.LLFI:
				lib := &llfi.Lib{Target: -1}
				lib.Bind(hostM)
				hostM.Run()
				hostCount = lib.Count
			}

			hookM := bin.NewMachine()
			bindGolden(hookM, tc.tool)
			ch := &vm.CountHook{Targets: tc.siteMap(bin.Img), Arm: -1}
			hookM.Count = ch
			hookM.Run()

			if ch.N != hostCount {
				t.Errorf("%s/%s: count hook over SiteMap counted %d, host-call runtime counted %d",
					name, tc.tool, ch.N, hostCount)
			}
		}
	}
}

// hostToggleProg builds a program with a host call (out_i64) partway
// through real computation, so a test host implementation can flip
// budget/hook/count state mid-run with plain instructions on both sides of
// the transition for the loops to chew on.
func hostToggleProg(t *testing.T) *vm.Image {
	return mustAssemble(t, buildFactorial())
}

// transitionScenario mutates machine state from inside the out_i64 host
// function and/or an attached observer.
type transitionScenario struct {
	name string
	prep func(m *vm.Machine) // install host fn and initial observers
}

// budgetHookScenarios is the satellite sweep of the budget/hook transition
// seams: every way a host call or observer can flip Budget or Count
// mid-run. Each scenario runs on the production Run (the fast loop, Step
// while observed) and on RunStepped; final states must be bit-identical.
func budgetHookScenarios() []transitionScenario {
	noop := func(*vm.Machine, int32, *vm.Inst) {}
	return []transitionScenario{
		{"host-shrinks-budget", func(m *vm.Machine) {
			m.Budget = 1 << 40
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
				mm.Budget = mm.InstrCount + 5 // five instructions from now: timeout
			}})
		}},
		{"host-exhausts-budget-exactly", func(m *vm.Machine) {
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
				mm.Budget = mm.InstrCount // already spent: next instruction traps
			}})
		}},
		{"host-lifts-budget", func(m *vm.Machine) {
			m.Budget = 30 // would trap before the run completes
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
				mm.Budget = 0
			}})
		}},
		{"host-attaches-hook-that-shrinks-budget", func(m *vm.Machine) {
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
				everyInstr(mm, func(hm *vm.Machine, pc int32, in *vm.Inst) {
					if hm.InstrCount%3 == 0 {
						hm.Budget = hm.InstrCount + 7
					}
				})
			}})
		}},
		{"host-attaches-hook-that-detaches", func(m *vm.Machine) {
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
				seen := 0
				everyInstr(mm, func(hm *vm.Machine, pc int32, in *vm.Inst) {
					seen++
					if seen == 3 {
						hm.Count = nil // observed → fast transition mid-run
					}
				})
			}})
		}},
		{"hook-attached-host-swaps-budget", func(m *vm.Machine) {
			everyInstr(m, noop)
			m.Budget = 1 << 40
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
				mm.Budget = mm.InstrCount + 4
			}})
		}},
		{"host-attaches-counthook", func(m *vm.Machine) {
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
				if mm.Count == nil {
					tm := make([]bool, len(mm.Img.Instrs))
					for i := range tm {
						tm[i] = i%2 == 0
					}
					mm.Count = &vm.CountHook{Targets: tm, PerInstr: 3, Arm: -1}
				}
			}})
		}},
		{"counthook-fire-attaches-exechook", func(m *vm.Machine) {
			tm := make([]bool, len(m.Img.Instrs))
			for i := range tm {
				tm[i] = true
			}
			m.Count = &vm.CountHook{Targets: tm, PerInstr: 2, Arm: 9,
				Fire: func(fm *vm.Machine, pc int32, in *vm.Inst) {
					everyInstr(fm, func(hm *vm.Machine, pc int32, in *vm.Inst) { hm.Cycles++ })
				}}
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
			}})
		}},
		{"counthook-fire-halts", func(m *vm.Machine) {
			tm := make([]bool, len(m.Img.Instrs))
			for i := range tm {
				tm[i] = true
			}
			m.Count = &vm.CountHook{Targets: tm, PerInstr: 1, Arm: 25,
				Fire: func(fm *vm.Machine, pc int32, in *vm.Inst) {
					fm.Halted = true
					fm.ExitCode = 77
				}}
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
			}})
		}},
		{"counthook-fire-shrinks-budget", func(m *vm.Machine) {
			tm := make([]bool, len(m.Img.Instrs))
			for i := range tm {
				tm[i] = true
			}
			m.Count = &vm.CountHook{Targets: tm, PerInstr: 1, Arm: 12,
				Fire: func(fm *vm.Machine, pc int32, in *vm.Inst) {
					fm.Budget = fm.InstrCount + 3
					fm.Count = nil
				}}
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
			}})
		}},
	}
}

// TestBudgetHookTransitionsMatchStep is the satellite regression sweep: for
// every budget/hook transition scenario, the production Run (which crosses
// runFast ↔ Step at each transition) must finish in a state bit-identical
// to the pure Step reference.
func TestBudgetHookTransitionsMatchStep(t *testing.T) {
	img := hostToggleProg(t)
	for _, sc := range budgetHookScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			run := func(stepped bool) machineState {
				m := vm.New(img)
				sc.prep(m)
				if stepped {
					m.RunStepped()
				} else {
					m.Run()
				}
				return snapshot(m)
			}
			fast := run(false)
			ref := run(true)
			if !equalStates(fast, ref) {
				t.Errorf("scenario %s diverged:\nfast: %+v\nref:  %+v", sc.name, fast, ref)
			}
		})
	}
}

// TestCountHookBudgetArithmetic pins the InstrCount a budget trap lands on:
// the budget is checked before executing, on the committed count, so a
// budget of k halts with InstrCount == k — including when a count hook is
// charging per-instruction cycles.
func TestCountHookBudgetArithmetic(t *testing.T) {
	img := hostToggleProg(t)
	for _, budget := range []int64{1, 2, 7, 31} {
		run := func(stepped bool) machineState {
			m := vm.New(img)
			bindOut(m)
			m.Budget = budget
			tm := make([]bool, len(img.Instrs))
			m.Count = &vm.CountHook{Targets: tm, PerInstr: 5, Arm: -1}
			if stepped {
				m.RunStepped()
			} else {
				m.Run()
			}
			return snapshot(m)
		}
		fast := run(false)
		ref := run(true)
		if !equalStates(fast, ref) {
			t.Errorf("budget %d diverged:\nfast: %+v\nref:  %+v", budget, fast, ref)
		}
		if fast.Trap != vm.TrapTimeout || fast.InstrCount != budget {
			t.Errorf("budget %d: trap=%v InstrCount=%d, want timeout at exactly the budget",
				budget, fast.Trap, fast.InstrCount)
		}
	}
}

// TestResetClearsCountHook extends the machine-reuse hygiene contract to
// the new observer: a pooled machine must not leak a count hook.
func TestResetClearsCountHook(t *testing.T) {
	img := hostToggleProg(t)
	m := vm.New(img)
	m.Count = &vm.CountHook{Targets: make([]bool, len(img.Instrs))}
	m.Reset()
	if m.Count != nil {
		t.Fatal("Reset left CountHook attached")
	}
}
