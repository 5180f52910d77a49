package vm_test

// Differential tests for the predecoded fast execution engine: for real
// workload binaries under all three tool pipelines, the fast loop must be
// observationally identical to the Step reference path — same traps, exit
// codes, outputs, instruction counts, cycle accounting, and final register
// file — including under fault injection, and the dirty-page Reset must
// restore exactly the state a fresh machine starts from.

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/llfi"
	"repro/internal/multibit"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/vx"
	"repro/internal/workloads"
)

// machineState snapshots everything observable about a finished run, and the
// dirty-page bitmap: marking is exact on every execution path, so two runs
// that agree on memory agree on which pages they wrote.
type machineState struct {
	Trap       vm.TrapKind
	ExitCode   int64
	InstrCount int64
	Cycles     int64
	PC         int32
	Regs       [33]uint64
	Output     []uint64
	Dirty      []uint64
}

func snapshot(m *vm.Machine) machineState {
	return machineState{
		Trap:       m.Trap,
		ExitCode:   m.ExitCode,
		InstrCount: m.InstrCount,
		Cycles:     m.Cycles,
		PC:         m.PC,
		Regs:       m.Regs,
		Output:     append([]uint64(nil), m.Output...),
		Dirty:      vm.DirtyPages(m),
	}
}

func equalStates(a, b machineState) bool {
	if a.Trap != b.Trap || a.ExitCode != b.ExitCode || a.InstrCount != b.InstrCount ||
		a.Cycles != b.Cycles || a.PC != b.PC || a.Regs != b.Regs {
		return false
	}
	return slices.Equal(a.Output, b.Output) && slices.Equal(a.Dirty, b.Dirty)
}

func buildBin(t testing.TB, appName string, tool campaign.Tool) *campaign.Binary {
	t.Helper()
	app, err := workloads.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := campaign.BuildBinary(app, tool, campaign.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// bindGolden installs the per-tool profiling runtime (REFINE/LLFI images
// import instrumentation symbols that must resolve before Run) and returns
// its call count so far (0 for a tool without one).
func bindGolden(m *vm.Machine, tool campaign.Tool) func() int64 {
	switch tool {
	case campaign.REFINE:
		lib := &core.Lib{Target: -1}
		lib.Bind(m)
		return func() int64 { return lib.Count }
	case campaign.LLFI:
		lib := &llfi.Lib{Target: -1}
		lib.Bind(m)
		return func() int64 { return lib.Count }
	}
	return func() int64 { return 0 }
}

// everyInstr steps m on through Step, the reference path, and runs fn after
// every instruction that commits without halting the machine, until the
// machine halts or fn returns false. It charges no cycles: it is
// pinfi.Observe without a cost model or a target map.
func everyInstr(m *vm.Machine, fn func(pc int32, in *vm.Inst) bool) {
	for !m.Halted {
		pc := m.PC
		m.Step()
		if !m.Halted && !fn(pc, &m.Img.Instrs[pc]) {
			return
		}
	}
}

// observeNow arms a fire point due at once whose callback runs
// everyInstr(m, fn): how host code hands a stretch of the run to a
// per-instruction observer, which a binary-level trial does from its
// injection (multibit.DoubleFlip). The loop the callback interrupted resumes
// where the observer stops.
func observeNow(m *vm.Machine, fn func(pc int32, in *vm.Inst) bool) {
	m.ArmFire(&vm.FirePoint{At: m.InstrCount, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) { everyInstr(mm, fn) }})
}

func TestFastEngineMatchesStepReference(t *testing.T) {
	apps := []string{"FT", "HPCCG", "CG", "lulesh", "EP", "DC"}
	for _, name := range apps {
		for _, tool := range campaign.Tools {
			bin := buildBin(t, name, tool)

			fast := bin.NewMachine()
			fastCount := bindGolden(fast, tool)
			fast.Run()

			ref := bin.NewMachine()
			refCount := bindGolden(ref, tool)
			ref.RunStepped()

			if fs, rs := snapshot(fast), snapshot(ref); !equalStates(fs, rs) {
				t.Errorf("%s/%s: fast engine diverged from Step reference:\nfast: %+v\nref:  %+v",
					name, tool, fs, rs)
			}
			if fc, rc := fastCount(), refCount(); fc != rc {
				t.Errorf("%s/%s: control library counted %d calls fast, %d stepped", name, tool, fc, rc)
			}
		}
	}
}

// libState is what a control library holds after a trial: the counter the
// VM advances on its own for an inert call, the fault, and every AtMark
// callback with the boundary it ran at.
type libState struct {
	Count     int64
	Triggered bool
	Rec       fault.Record
	AtMarks   [][3]int64 // count, InstrCount, PC
}

// libTrial is one control-library trial: the library's call count starts
// at from (on a machine restored from the golden run there when from > 0),
// it injects at target, and it calls AtMark at marks; halt > 0 halts the
// machine from the AtMark of that count, as a rejoined trial is.
type libTrial struct {
	flips              int // 0: LLFI
	from, target, halt int64
	marks              []int64
	budget             int64
	seed               uint64
}

// bind binds t's library on m and returns its state reporter.
func (t libTrial) bind(m *vm.Machine) func() libState {
	var st libState
	at := func(count int64) {
		st.AtMarks = append(st.AtMarks, [3]int64{count, m.InstrCount, int64(m.PC)})
		if count == t.halt {
			m.Halted = true
		}
	}
	rng := fault.NewRNG(t.seed)
	if t.flips == 0 {
		lib := &llfi.Lib{Target: t.target, RNG: rng, Count: t.from, Marks: t.marks, AtMark: at}
		lib.Bind(m)
		return func() libState {
			st.Count, st.Triggered, st.Rec = lib.Count, lib.Triggered, lib.Rec
			return st
		}
	}
	lib := &core.Lib{Target: t.target, RNG: rng, Flips: t.flips, Count: t.from, Marks: t.marks, AtMark: at}
	lib.Bind(m)
	return func() libState {
		lib.ResolveRecord(m.Img)
		st.Count, st.Triggered, st.Rec = lib.Count, lib.Triggered, lib.Rec
		return st
	}
}

// TestFastEngineMatchesStepUnderInjection drives corrupted executions (the
// post-fault wild-control-flow paths the campaign actually exercises)
// through both engines for the three control-library tools — REFINE,
// REFINE2 and LLFI — on three small kernels, and for REFINE on HPCCG: per
// pair, 24 plain trials from Reset spread over the run, and on top of them
// marked trials (one halting at a mark, as a rejoined trial does), a marked
// profile and trials from a golden snapshot with the library's count
// started there. Both the machine and the library must agree: the fast loop
// makes the library's inert calls itself (vm.Inert), Step enters the
// closure every time.
func TestFastEngineMatchesStepUnderInjection(t *testing.T) {
	const targets = 24
	type toolFlips struct {
		tool  campaign.Tool
		flips int // libTrial.flips
	}
	all := []toolFlips{{campaign.REFINE, 1}, {multibit.Injector, 2}, {campaign.LLFI, 0}}
	for _, c := range []struct {
		name  string
		tools []toolFlips
	}{{"HPCCG", all[:1]}, {"DC", all}, {"FT", all}, {"EP", all}} {
		name := c.name
		for _, tf := range c.tools {
			tool, flips := tf.tool, tf.flips
			bin := buildBin(t, name, tool)
			prof, err := bin.RunProfile(pinfi.DefaultCosts())
			if err != nil {
				t.Fatal(err)
			}
			n := prof.Targets
			from := n / 3
			start := goldenSnapshot(t, bin, flips, from)
			var trials []libTrial
			for i := 0; i < targets; i++ {
				target := n * int64(i) / int64(targets)
				trials = append(trials, libTrial{flips: flips, target: target, budget: prof.Budget, seed: uint64(i) * 977})
			}
			for i := 1; i < targets; i += 6 {
				// Marks behind the fault and spread over the rest of the run;
				// the last row halts at one, as a rejoined trial does.
				target := n * int64(i) / int64(targets)
				tr := libTrial{flips: flips, target: target, budget: prof.Budget, seed: uint64(i)*977 + 1,
					marks: []int64{target + int64(flips) + 1, target + (n-target)/2, n}}
				if i+6 >= targets {
					tr.halt = tr.marks[1]
				}
				trials = append(trials, tr)
			}
			trials = append(trials,
				libTrial{flips: flips, target: -1, budget: prof.Budget, marks: []int64{1, n / 2, n}},
				libTrial{flips: flips, from: from, target: from, budget: prof.Budget, seed: 5},
				libTrial{flips: flips, from: from, target: from + (n-from)/2, budget: prof.Budget, seed: 6,
					marks: []int64{from + 1, from + (n-from)/2 + 3, n}})
			for _, tr := range trials {
				run := func(exec func(m *vm.Machine)) (machineState, libState) {
					m := bin.NewMachine()
					if tr.from > 0 {
						m.Restore(start)
					}
					m.Budget = tr.budget
					report := tr.bind(m)
					exec(m)
					return snapshot(m), report()
				}
				fs, fl := run(func(m *vm.Machine) { m.Run() })
				rs, rl := run(func(m *vm.Machine) { m.RunStepped() })
				if !equalStates(fs, rs) {
					t.Errorf("%s/%s %+v: fast engine diverged under injection:\nfast: %+v\nref:  %+v", name, tool.Name(), tr, fs, rs)
				}
				if !reflect.DeepEqual(fl, rl) {
					t.Errorf("%s/%s %+v: control library diverged:\nfast: %+v\nref:  %+v", name, tool.Name(), tr, fl, rl)
				}
			}
		}
	}
}

// goldenSnapshot returns bin's golden run snapshotted right behind the call
// that brings its control library's count to dyn, where a campaign anchor is
// taken: the run halts there.
func goldenSnapshot(t *testing.T, bin *campaign.Binary, flips int, dyn int64) *vm.Snapshot {
	t.Helper()
	m := bin.NewMachine()
	report := libTrial{flips: flips, target: -1, marks: []int64{dyn}, halt: dyn}.bind(m)
	m.Run()
	if len(report().AtMarks) != 1 {
		t.Fatalf("%s/%s: the golden run never brings the count to %d", bin.App.Name, bin.Tool.Name(), dyn)
	}
	return m.Snapshot()
}

// TestDirtyPageResetMatchesFreshMachine verifies that Reset's dirty-page
// clearing restores memory byte-for-byte to the state of a brand-new
// machine, even after runs that trap mid-execution.
func TestDirtyPageResetMatchesFreshMachine(t *testing.T) {
	for _, tool := range campaign.Tools {
		bin := buildBin(t, "CG", tool)
		m := bin.NewMachine()
		bindGolden(m, tool)
		m.Run()
		m.Reset()

		fresh := bin.NewMachine()
		if !bytes.Equal(m.Mem, fresh.Mem) {
			t.Fatalf("%s: reset memory differs from fresh machine", tool)
		}
		if m.Regs != fresh.Regs || m.PC != fresh.PC {
			t.Fatalf("%s: reset registers differ from fresh machine", tool)
		}

		// Re-run after the dirty reset: accounting must replay exactly.
		bindGolden(m, tool)
		m.Run()
		fresh2 := bin.NewMachine()
		bindGolden(fresh2, tool)
		fresh2.Run()
		if fs, rs := snapshot(m), snapshot(fresh2); !equalStates(fs, rs) {
			t.Fatalf("%s: rerun after dirty reset diverged:\nreset: %+v\nfresh: %+v", tool, fs, rs)
		}
	}
}

// TestHostAttachedHookMatchesStep covers the way an observer can appear
// mid-run: a host function arming a fire point at its own call, whose
// callback steps the rest of the run. Both loops service it right behind the
// CALLQ — the probe's observation count and the final state have to match
// the reference path exactly.
func TestHostAttachedHookMatchesStep(t *testing.T) {
	img := mustAssemble(t, buildFactorial())
	run := func(ref bool) (machineState, int) {
		m := vm.New(img)
		hooked := 0
		m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
			mm.Output = append(mm.Output, mm.Regs[vx.R1])
			mm.Regs[vx.R0] = 0
			observeNow(mm, func(int32, *vm.Inst) bool { hooked++; return true })
		}})
		if ref {
			m.RunStepped()
		} else {
			m.Run()
		}
		return snapshot(m), hooked
	}
	fs, fh := run(false)
	rs, rh := run(true)
	if fh != rh {
		t.Errorf("host-attached hook observed %d instructions fast vs %d stepped", fh, rh)
	}
	if !equalStates(fs, rs) {
		t.Errorf("host-attached hook run diverged:\nfast: %+v\nref:  %+v", fs, rs)
	}
}

// TestHostClearedBudgetMatchesStep: a host function lifting the budget
// mid-run must stop timeout enforcement in the fast loop too (the countdown
// is refreshed after every host call).
func TestHostClearedBudgetMatchesStep(t *testing.T) {
	img := mustAssemble(t, buildFactorial())
	probe := vm.New(img)
	probe.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
		mm.Regs[vx.R0] = 0
	}})
	if probe.Run() != vm.TrapNone {
		t.Fatal("probe run failed")
	}
	total := probe.InstrCount

	run := func(ref bool) machineState {
		m := vm.New(img)
		m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
			mm.Regs[vx.R0] = 0
			mm.Budget = 0 // lift the timeout mid-run
		}})
		m.Budget = total - 1 // would trap before halting if the lift were lost
		if ref {
			m.RunStepped()
		} else {
			m.Run()
		}
		return snapshot(m)
	}
	fs := run(false)
	rs := run(true)
	if fs.Trap != vm.TrapNone {
		t.Errorf("fast run trapped %v despite host lifting the budget", fs.Trap)
	}
	if !equalStates(fs, rs) {
		t.Errorf("budget-lift run diverged:\nfast: %+v\nref:  %+v", fs, rs)
	}
}

// TestImageIndexes pins the map/binary-search rewrites of Imports and
// FuncOf to the semantics of the old linear scans.
func TestImageIndexes(t *testing.T) {
	bin := buildBin(t, "HPCCG", campaign.REFINE)
	img := bin.Img
	if !img.Imports(core.HostSelInstr) {
		t.Errorf("Imports(%q) = false, want true", core.HostSelInstr)
	}
	if img.Imports("no_such_symbol") {
		t.Errorf("Imports(no_such_symbol) = true, want false")
	}
	// Every pc must resolve to the function whose [Entry, End) contains it,
	// exactly as the linear scan did.
	for pc := int32(0); int(pc) < len(img.Instrs); pc++ {
		var want *vm.FuncInfo
		for i := range img.Funcs {
			f := &img.Funcs[i]
			if pc >= f.Entry && pc < f.End {
				want = f
				break
			}
		}
		if got := img.FuncOf(pc); got != want {
			t.Fatalf("FuncOf(%d) = %v, want %v", pc, got, want)
		}
	}
	if img.FuncOf(-1) != nil || img.FuncOf(int32(len(img.Instrs)+7)) != nil {
		t.Errorf("FuncOf out of range should be nil")
	}
}

// TestResetClearsBudgetAndHook is the machine-reuse hygiene regression
// test: a pooled machine must not leak the previous trial's timeout budget
// or a pending observer into the next run.
func TestResetClearsBudgetAndHook(t *testing.T) {
	bin := buildBin(t, "CG", campaign.PINFI)
	m := bin.NewMachine()
	m.Budget = 123
	observeNow(m, func(int32, *vm.Inst) bool { return true })
	m.Reset()
	if m.Budget != 0 {
		t.Errorf("Reset left Budget = %d, want 0", m.Budget)
	}
	if m.FireArmed() {
		t.Errorf("Reset left the probe armed")
	}
	// A reused machine whose previous trial timed out must now complete.
	m.Budget = 10
	if trap := m.Run(); trap != vm.TrapTimeout {
		t.Fatalf("trap = %v, want timeout", trap)
	}
	m.Reset()
	if trap := m.Run(); trap != vm.TrapNone {
		t.Fatalf("after reset trap = %v (budget leaked?)", trap)
	}
}
