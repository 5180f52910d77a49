package pinfi_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/codegen"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/vx"
)

func buildImage(t *testing.T) *vm.Image {
	t.Helper()
	m := ir.NewModule("t")
	m.DeclareHost(ir.HostDecl{Name: "out_i64", Params: []ir.Type{ir.I64}, Ret: ir.I64})
	b := ir.NewBuilder(m)
	b.NewFunc("main", ir.I64)
	s := b.NewVar(ir.I64, b.ConstI(0))
	b.Loop(b.ConstI(1), b.ConstI(200), b.ConstI(1), func(i *ir.Value) {
		s.Set(b.Add(s.Get(), b.SDiv(b.Mul(i, i), b.Add(i, b.ConstI(1)))))
	})
	b.Call("out_i64", s.Get())
	b.Ret(b.ConstI(0))
	opt.Optimize(m, opt.O2)
	res, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(res.Prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func newMachine(img *vm.Image) *vm.Machine {
	m := vm.New(img)
	m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
		mm.Output = append(mm.Output, mm.Regs[vx.R1])
		mm.Regs[vx.R0] = 0
	}})
	return m
}

// profile runs the profiling pass on a fresh machine, which it returns
// halted (InstrCount is the golden run's length).
func profile(img *vm.Image) (m *vm.Machine, fps *pinfi.FirePoints, golden []uint64) {
	m = newMachine(img)
	fps, golden = pinfi.Profile(m, pinfi.TargetMap(img, fault.DefaultConfig()), pinfi.DefaultCosts())
	return m, fps, golden
}

// trial runs one register-flip trial on the production carrier.
func trial(m *vm.Machine, fps *pinfi.FirePoints, target int64, rng *fault.RNG) fault.Record {
	var rec fault.Record
	pinfi.RunFired(m, fps, pinfi.DefaultCosts(), target, pinfi.Flip(target, rng, &rec))
	return rec
}

func TestProfileCountsAndGolden(t *testing.T) {
	img := buildImage(t)
	m, fps, golden := profile(img)
	if fps.N == 0 {
		t.Fatal("no targets")
	}
	if len(golden) != 1 {
		t.Fatalf("golden length %d", len(golden))
	}
	if m.Trap != vm.TrapNone || m.ExitCode != 0 {
		t.Fatalf("golden run failed")
	}
}

func TestProfileCostsMoreThanNative(t *testing.T) {
	img := buildImage(t)
	m := newMachine(img)
	m.Run()
	native := m.Cycles

	m2, _, _ := profile(img)
	if m2.Cycles <= native {
		t.Fatalf("instrumented profile (%d cycles) not slower than native (%d)", m2.Cycles, native)
	}
}

func TestTrialInjectsAndDetaches(t *testing.T) {
	img := buildImage(t)
	m, fps, golden := profile(img)
	targets := fps.N
	budget := m.InstrCount * 10

	outcomes := map[fault.Outcome]int{}
	for target := int64(0); target < targets; target += targets/31 + 1 {
		mt := newMachine(img)
		mt.Budget = budget
		rec := trial(mt, fps, target, fault.NewRNG(uint64(target)+5))
		if rec.Op == "" {
			t.Fatalf("target %d: no fault recorded", target)
		}
		if mt.FireArmed() {
			t.Fatal("instrumentation still attached after trial")
		}
		outcomes[fault.Classify(mt, golden)]++
	}
	if len(outcomes) < 2 {
		t.Fatalf("outcome mix degenerate: %v", outcomes)
	}
}

// TestDetachReducesCost verifies the §5.2 optimization: a trial injecting
// early must cost fewer modeled cycles than one injecting late, because
// instrumentation detaches at the injection point.
func TestDetachReducesCost(t *testing.T) {
	img := buildImage(t)
	m, fps, _ := profile(img)
	targets := fps.N

	early := newMachine(img)
	early.Budget = m.InstrCount * 10
	// Use a seed whose flip is benign-ish; costs still dominated by hook.
	trial(early, fps, 0, fault.NewRNG(1))

	late := newMachine(img)
	late.Budget = m.InstrCount * 10
	trial(late, fps, targets-1, fault.NewRNG(1))

	if early.Cycles >= late.Cycles {
		t.Fatalf("early-inject trial (%d cycles) not cheaper than late-inject (%d): detach not working",
			early.Cycles, late.Cycles)
	}
}

func TestTrialDeterminism(t *testing.T) {
	img := buildImage(t)
	m, fps, golden := profile(img)
	targets := fps.N
	target := targets / 2

	m1 := newMachine(img)
	m1.Budget = m.InstrCount * 10
	r1 := trial(m1, fps, target, fault.NewRNG(99))
	m2 := newMachine(img)
	m2.Budget = m.InstrCount * 10
	r2 := trial(m2, fps, target, fault.NewRNG(99))
	if r1 != r2 || m1.Cycles != m2.Cycles ||
		fault.Classify(m1, golden) != fault.Classify(m2, golden) {
		t.Fatal("identical trials diverged")
	}
}

func TestRecordFieldsPlausible(t *testing.T) {
	img := buildImage(t)
	m, fps, _ := profile(img)
	targets := fps.N
	mt := newMachine(img)
	mt.Budget = m.InstrCount * 10
	target := targets / 3
	rec := trial(mt, fps, target, fault.NewRNG(4))
	if rec.DynIdx != target {
		t.Fatalf("record dyn %d, want %d", rec.DynIdx, target)
	}
	if int(rec.PC) >= len(img.Instrs) {
		t.Fatalf("record pc out of range")
	}
	if rec.Bit >= 64 {
		t.Fatalf("bit %d out of range", rec.Bit)
	}
}

// TestObserveChargesCommittedInstructions: Observe charges PerInstr for
// every instruction that commits without halting the machine — not for one
// that traps — and stops where fn answers false, the machine running on
// uninstrumented from there.
func TestObserveChargesCommittedInstructions(t *testing.T) {
	img := buildImage(t)
	const perInstr = 1000
	every := make([]bool, len(img.Instrs))
	for i := range every {
		every[i] = true
	}
	// observe steps a run whose stack and frame pointers go wild at
	// instruction 50, so the closing RET traps, and detaches at instruction
	// detach (never if 0).
	observe := func(costs pinfi.CostModel, detach int64) *vm.Machine {
		m := newMachine(img)
		pinfi.Observe(m, costs, every, func(int32) bool {
			if m.InstrCount == 50 {
				m.Regs[vx.SP], m.Regs[vx.BP] = 8, 8
			}
			return m.InstrCount != detach
		})
		return m
	}
	plain := observe(pinfi.CostModel{}, 0)
	charged := observe(pinfi.CostModel{PerInstr: perInstr}, 0)
	if charged.Trap != vm.TrapSegv || plain.Trap != vm.TrapSegv {
		t.Fatalf("the wild stack pointer ended the runs with %v / %v, want a segfault", charged.Trap, plain.Trap)
	}
	if got, want := charged.Cycles-plain.Cycles, perInstr*(charged.InstrCount-1); got != want {
		t.Errorf("observing %d instructions, the last of them trapping, charged %d cycles, want %d", charged.InstrCount, got, want)
	}

	detached := observe(pinfi.CostModel{PerInstr: perInstr}, 20)
	if detached.Halted || detached.InstrCount != 20 {
		t.Fatalf("detach at instruction 20 left the machine halted=%v at instruction %d", detached.Halted, detached.InstrCount)
	}
	detached.Run()
	golden := newMachine(img)
	golden.Run()
	if got, want := detached.Cycles, golden.Cycles+20*perInstr; detached.Trap != vm.TrapNone || got != want {
		t.Errorf("detached run: trap %v, %d cycles, want a normal halt and %d", detached.Trap, got, want)
	}
}
