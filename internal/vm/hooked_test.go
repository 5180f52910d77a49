package vm_test

// Differential tests for observed execution. An observer is a stepping loop
// over Step (pinfi.Observe, the test helper everyInstr) that a fire point's
// callback may run in the middle of a fast-loop run, so what these tests pin
// is everything that crosses a boundary between Step and the hook-free fast
// loop — a stretch stepped from a fire point armed by a host call or by
// another observer, a budget changed from inside either — against the pure
// Step reference (RunStepped), and PIN's counting instrumentation (the count
// hook, pinfi.Observe) against the closure formulation of the same counting:
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

// TestCountHookMatchesClosureHook pins PIN's counting instrumentation as
// pinfi.Profile runs it — bitmap lookup, PerInstr surcharge, the recorded
// occurrences — to the closure formulation of PINFI's whole-run counting
// instrumentation, which evaluates the population predicate and charges the
// callback on every instruction: same population count, same cycle
// surcharges, same final state.
func TestCountHookMatchesClosureHook(t *testing.T) {
	for _, name := range diffApps(t) {
		bin := buildBin(t, name, campaign.PINFI)
		costs := pinfi.DefaultCosts()
		cfg := bin.Cfg

		// Closure counting on the Step reference path.
		m := bin.NewMachine()
		m.Cycles += costs.JITPerStaticInstr * int64(len(m.Img.Instrs))
		var closureTargets int64
		everyInstr(m, func(_ int32, in *vm.Inst) bool {
			m.Cycles += costs.PerInstr
			if cfg.TargetInst(m.Img, in) {
				closureTargets++
			}
			return true
		})
		ref := snapshot(m)

		// The production profile.
		fastM := bin.NewMachine()
		fps, golden := pinfi.Profile(fastM, bin.TargetMap(), costs)
		targets := fps.N
		fast := snapshot(fastM)

		if !equalStates(fast, ref) {
			t.Errorf("%s: profile diverged from closure reference:\nfast: %+v\nref:  %+v", name, fast, ref)
		}
		if targets != closureTargets {
			t.Errorf("%s: profile counted %d targets, closure counted %d", name, targets, closureTargets)
		}
		if len(golden) != len(ref.Output) {
			t.Errorf("%s: golden output length %d vs %d", name, len(golden), len(ref.Output))
		}
	}
}

// TestHookedTrialPrefixMatchesStep sweeps counted PINFI trials — observed
// counting prefix, injection, detach, hook-free tail (pinfi.RunCounted) —
// across a spread of dynamic targets, comparing the counted carrier against
// a stepped reference that counts in a closure on every instruction. Records
// (PC, register, bit) must match too: the injection point may not shift by a
// single dynamic instruction.
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
			pinfi.RunCounted(fastM, bin.TargetMap(), costs, target, pinfi.Flip(target, fault.NewRNG(uint64(i)*1237), &fastRec))
			fast := snapshot(fastM)

			// Stepped reference: the closure formulation.
			refM := bin.NewMachine()
			refM.Budget = prof.Budget
			refM.Cycles += costs.JITPerStaticInstr * int64(len(refM.Img.Instrs))
			rng := fault.NewRNG(uint64(i) * 1237)
			var refRec fault.Record
			var count int64
			everyInstr(refM, func(pc int32, in *vm.Inst) bool {
				refM.Cycles += costs.PerInstr
				if !cfg.TargetInst(refM.Img, in) {
					return true
				}
				if count == target {
					var buf [3]vx.Reg
					outs := in.Shape().Outputs(&buf)
					op, bit := fault.PickOperandAndBit(rng, outs)
					refM.FlipBit(outs[op], bit)
					refRec = fault.Record{DynIdx: count, PC: pc, Reg: outs[op], Bit: bit, Op: in.Op.String()}
					return false
				}
				count++
				return true
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
// profile libraries expose against their host-call-counted populations:
// stepping a golden run and counting the instructions core.SiteMap /
// llfi.SiteMap mark must count exactly what the control runtime's selInstr /
// injectFault invocations count. This pins the whole chain —
// instrumentation pass, code generation, runtime protocol — across layers.
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

			stepM := bin.NewMachine()
			bindGolden(stepM, tc.tool)
			sites := tc.siteMap(bin.Img)
			var n int64
			everyInstr(stepM, func(pc int32, _ *vm.Inst) bool {
				if sites[pc] {
					n++
				}
				return true
			})

			if n != hostCount {
				t.Errorf("%s/%s: stepping over SiteMap counted %d, host-call runtime counted %d",
					name, tc.tool, n, hostCount)
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
// function and/or a fire point and the observer it runs.
type transitionScenario struct {
	name string
	prep func(m *vm.Machine) // install host fn and initial fire point
}

// budgetHookScenarios is the satellite sweep of the budget/hook transition
// seams: every way a host call, a fire point or the stepping observer one of
// them runs (the count hook, pinfi.Observe) can flip Budget, halt, or arm
// the next fire point mid-run. Each scenario runs on the production Run (the
// fast loop, stepping inside a serviced fire point) and on RunStepped; final
// states must be bit-identical.
func budgetHookScenarios() []transitionScenario {
	everyOther := func(m *vm.Machine) []bool {
		tm := make([]bool, len(m.Img.Instrs))
		for i := range tm {
			tm[i] = i%2 == 0
		}
		return tm
	}
	// countHookFire arms a fire point at instruction 3 that observes the run
	// on with a count hook over every instruction, at PerInstr cycles each,
	// and runs fire at its arm-th occurrence; fire's answer is the hook's.
	countHookFire := func(m *vm.Machine, perInstr, arm int64, fire func(fm *vm.Machine) bool) {
		m.ArmFire(&vm.FirePoint{At: 3, Fn: func(fm *vm.Machine, _ int32, _ *vm.Inst) {
			n := int64(0)
			all := vm.TargetMap(fm.Img, func(*vm.Inst) bool { return true })
			pinfi.Observe(fm, pinfi.CostModel{PerInstr: perInstr}, all, func(int32) bool {
				if n++; n-1 == arm {
					return fire(fm)
				}
				return true
			})
		}})
		m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
			mm.Regs[vx.R0] = 0
		}})
	}
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
				observeNow(mm, func(int32, *vm.Inst) bool {
					if mm.InstrCount%3 == 0 {
						mm.Budget = mm.InstrCount + 7
					}
					return true
				})
			}})
		}},
		{"host-attaches-hook-that-detaches", func(m *vm.Machine) {
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
				seen := 0
				observeNow(mm, func(int32, *vm.Inst) bool {
					seen++
					return seen < 3 // observed → fast transition mid-run
				})
			}})
		}},
		{"hook-attached-host-swaps-budget", func(m *vm.Machine) {
			observeNow(m, func(int32, *vm.Inst) bool { return true })
			m.Budget = 1 << 40
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
				mm.Budget = mm.InstrCount + 4
			}})
		}},
		{"host-attaches-counthook", func(m *vm.Machine) {
			m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
				tm := everyOther(mm)
				mm.ArmFire(&vm.FirePoint{At: mm.InstrCount, Fn: func(fm *vm.Machine, _ int32, _ *vm.Inst) {
					pinfi.Observe(fm, pinfi.CostModel{PerInstr: 3}, tm, func(int32) bool { return true })
				}})
			}})
		}},
		{"counthook-fire-attaches-exechook", func(m *vm.Machine) {
			countHookFire(m, 2, 9, func(fm *vm.Machine) bool {
				// The second flip's shape: detach and arm the next fire point
				// (campaign.Tail.Chain), which the fast loop must pick up.
				fm.ArmFire(&vm.FirePoint{At: fm.InstrCount + 6, Fn: func(hm *vm.Machine, _ int32, _ *vm.Inst) {
					hm.Cycles += 1000
					hm.FlipBit(vx.R0, 2)
				}})
				return false
			})
		}},
		{"counthook-fire-halts", func(m *vm.Machine) {
			countHookFire(m, 1, 25, func(fm *vm.Machine) bool {
				fm.Halted = true
				fm.ExitCode = 77
				return true
			})
		}},
		{"counthook-fire-shrinks-budget", func(m *vm.Machine) {
			countHookFire(m, 1, 12, func(fm *vm.Machine) bool {
				fm.Budget = fm.InstrCount + 3
				return false
			})
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
// budget of k halts with InstrCount == k on Run and on RunStepped alike —
// and under a count hook (pinfi.Observe) charging per-instruction cycles,
// which charges all k of them: the trap is not an instruction.
func TestCountHookBudgetArithmetic(t *testing.T) {
	img := hostToggleProg(t)
	const perInstr = 5
	for _, budget := range []int64{1, 2, 7, 31} {
		run := func(how string) machineState {
			m := vm.New(img)
			bindOut(m)
			m.Budget = budget
			switch how {
			case "fast":
				m.Run()
			case "stepped":
				m.RunStepped()
			case "observed":
				pinfi.Observe(m, pinfi.CostModel{PerInstr: perInstr}, nil, nil)
				m.Cycles -= perInstr * m.InstrCount
			}
			return snapshot(m)
		}
		fast := run("fast")
		for _, how := range []string{"stepped", "observed"} {
			if ref := run(how); !equalStates(fast, ref) {
				t.Errorf("budget %d diverged %s:\nfast: %+v\n%s: %+v", budget, how, fast, how, ref)
			}
		}
		if fast.Trap != vm.TrapTimeout || fast.InstrCount != budget {
			t.Errorf("budget %d: trap=%v InstrCount=%d, want timeout at exactly the budget",
				budget, fast.Trap, fast.InstrCount)
		}
	}
}
