package vm_test

import (
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/mir"
	"repro/internal/vm"
	"repro/internal/vx"
)

// buildFactorial hand-assembles: main computes 10! iteratively via a helper
// function with a real call, then emits the result through out_i64.
func buildFactorial() *mir.Prog {
	p := &mir.Prog{Entry: "main", HostFns: []string{"out_i64"}}

	fact := &mir.Fn{Name: "fact"}
	b0 := fact.NewBlock() // acc=1; loop
	b1 := fact.NewBlock() // loop: if n<=0 goto done
	b2 := fact.NewBlock() // body: acc*=n; n--
	b3 := fact.NewBlock() // done: ret acc in r0
	// n arrives in R1 (first int arg).
	b0.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.Imm(1)})
	b0.Emit(&mir.Instr{Op: vx.JMP, A: mir.Label(1)})
	b1.Emit(&mir.Instr{Op: vx.CMPQ, A: mir.PReg(vx.R1), B: mir.Imm(0)})
	b1.Emit(&mir.Instr{Op: vx.JCC, Cond: vx.CondLE, A: mir.Label(3)})
	b1.Emit(&mir.Instr{Op: vx.JMP, A: mir.Label(2)})
	b2.Emit(&mir.Instr{Op: vx.IMULQ, A: mir.PReg(vx.R0), B: mir.PReg(vx.R1)})
	b2.Emit(&mir.Instr{Op: vx.SUBQ, A: mir.PReg(vx.R1), B: mir.Imm(1)})
	b2.Emit(&mir.Instr{Op: vx.JMP, A: mir.Label(1)})
	b3.Emit(&mir.Instr{Op: vx.RET})

	main := &mir.Fn{Name: "main"}
	m0 := main.NewBlock()
	m0.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(10)})
	m0.Emit(&mir.Instr{Op: vx.CALLQ, A: mir.Sym("fact"), NIntArgs: 1})
	m0.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.PReg(vx.R0)})
	m0.Emit(&mir.Instr{Op: vx.CALLQ, A: mir.Sym("out_i64"), NIntArgs: 1})
	m0.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.Imm(0)})
	m0.Emit(&mir.Instr{Op: vx.RET})

	p.Fns = []*mir.Fn{main, fact}
	return p
}

// bindOut installs the standard output host function.
func bindOut(m *vm.Machine) {
	m.BindHost(vm.HostFn{
		Name: "out_i64",
		Fn: func(m *vm.Machine) {
			m.Output = append(m.Output, m.Regs[vx.R1])
			m.Regs[vx.R0] = 0
		},
	})
}

func mustAssemble(t *testing.T, p *mir.Prog) *vm.Image {
	t.Helper()
	img, err := asm.Assemble(p, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

func TestFactorialRuns(t *testing.T) {
	img := mustAssemble(t, buildFactorial())
	m := vm.New(img)
	bindOut(m)
	if trap := m.Run(); trap != vm.TrapNone {
		t.Fatalf("trap %v: %s", trap, m.TrapMsg)
	}
	if m.ExitCode != 0 {
		t.Fatalf("exit code %d", m.ExitCode)
	}
	if len(m.Output) != 1 || m.Output[0] != 3628800 {
		t.Fatalf("output = %v, want [3628800]", m.Output)
	}
}

func TestResetReproducible(t *testing.T) {
	img := mustAssemble(t, buildFactorial())
	m := vm.New(img)
	bindOut(m)
	m.Run()
	c1, n1 := m.Cycles, m.InstrCount
	m.Reset()
	m.Run()
	if m.Cycles != c1 || m.InstrCount != n1 {
		t.Fatalf("non-deterministic accounting: (%d,%d) vs (%d,%d)", c1, n1, m.Cycles, m.InstrCount)
	}
	if m.Output[0] != 3628800 {
		t.Fatalf("output after reset = %v", m.Output)
	}
}

func TestBudgetTimeout(t *testing.T) {
	// Infinite loop must hit the budget and trap as timeout.
	p := &mir.Prog{Entry: "main"}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.JMP, A: mir.Label(0)})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	m.Budget = 1000
	if trap := m.Run(); trap != vm.TrapTimeout {
		t.Fatalf("trap = %v, want timeout", trap)
	}
}

func TestSegvOnGuardPage(t *testing.T) {
	p := &mir.Prog{Entry: "main"}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(8)}) // null+8
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.Mem(int(vx.R1), 0)})
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	if trap := m.Run(); trap != vm.TrapSegv {
		t.Fatalf("trap = %v, want segv", trap)
	}
}

func TestSegvOutOfRange(t *testing.T) {
	p := &mir.Prog{Entry: "main"}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(1 << 40)})
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.Mem(int(vx.R1), 0), B: mir.Imm(7)})
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	if trap := m.Run(); trap != vm.TrapSegv {
		t.Fatalf("trap = %v, want segv", trap)
	}
}

func TestDivideTrap(t *testing.T) {
	p := &mir.Prog{Entry: "main"}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.Imm(42)})
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(0)})
	b.Emit(&mir.Instr{Op: vx.IDIVQ, A: mir.PReg(vx.R0), B: mir.PReg(vx.R1)})
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	if trap := m.Run(); trap != vm.TrapDivide {
		t.Fatalf("trap = %v, want divide", trap)
	}
}

func TestDivideIntMinTrap(t *testing.T) {
	p := &mir.Prog{Entry: "main"}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.Imm(math.MinInt64)})
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(-1)})
	b.Emit(&mir.Instr{Op: vx.IDIVQ, A: mir.PReg(vx.R0), B: mir.PReg(vx.R1)})
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	if trap := m.Run(); trap != vm.TrapDivide {
		t.Fatalf("trap = %v, want divide", trap)
	}
}

func TestGlobalsAndMemoryOps(t *testing.T) {
	p := &mir.Prog{Entry: "main", HostFns: []string{"out_i64"}}
	p.Globals = []mir.Global{
		{Name: "tbl", Size: 64, Init: []byte{5, 0, 0, 0, 0, 0, 0, 0}},
	}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	// r1 = tbl[0] (=5); tbl[1] = r1*3; r1 = tbl[1]; out(r1)
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.MemSym("tbl", 0)})
	b.Emit(&mir.Instr{Op: vx.IMULQ, A: mir.PReg(vx.R1), B: mir.Imm(3)})
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.MemSym("tbl", 8), B: mir.PReg(vx.R1)})
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.MemSym("tbl", 8)})
	b.Emit(&mir.Instr{Op: vx.CALLQ, A: mir.Sym("out_i64"), NIntArgs: 1})
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.Imm(0)})
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	bindOut(m)
	if trap := m.Run(); trap != vm.TrapNone {
		t.Fatalf("trap %v: %s", trap, m.TrapMsg)
	}
	if len(m.Output) != 1 || m.Output[0] != 15 {
		t.Fatalf("output = %v, want [15]", m.Output)
	}
}

func TestIndexedAddressing(t *testing.T) {
	p := &mir.Prog{Entry: "main", HostFns: []string{"out_i64"}}
	p.Globals = []mir.Global{{Name: "arr", Size: 80}}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	// arr[i] = i*i for i in 0..9 via indexed stores, then out(arr[7]).
	loop := f.NewBlock()
	done := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(0)})
	b.Emit(&mir.Instr{Op: vx.LEAQ, A: mir.PReg(vx.R2), B: mir.Sym("arr")})
	b.Emit(&mir.Instr{Op: vx.JMP, A: mir.Label(1)})
	loop.Emit(&mir.Instr{Op: vx.CMPQ, A: mir.PReg(vx.R1), B: mir.Imm(10)})
	loop.Emit(&mir.Instr{Op: vx.JCC, Cond: vx.CondGE, A: mir.Label(2)})
	loop.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R3), B: mir.PReg(vx.R1)})
	loop.Emit(&mir.Instr{Op: vx.IMULQ, A: mir.PReg(vx.R3), B: mir.PReg(vx.R1)})
	loop.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.MemIdx(int(vx.R2), int(vx.R1), 8, 0), B: mir.PReg(vx.R3)})
	loop.Emit(&mir.Instr{Op: vx.ADDQ, A: mir.PReg(vx.R1), B: mir.Imm(1)})
	loop.Emit(&mir.Instr{Op: vx.JMP, A: mir.Label(1)})
	done.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Mem(int(vx.R2), 56)})
	done.Emit(&mir.Instr{Op: vx.CALLQ, A: mir.Sym("out_i64"), NIntArgs: 1})
	done.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.Imm(0)})
	done.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	bindOut(m)
	if trap := m.Run(); trap != vm.TrapNone {
		t.Fatalf("trap %v: %s", trap, m.TrapMsg)
	}
	if m.Output[0] != 49 {
		t.Fatalf("arr[7] = %d, want 49", m.Output[0])
	}
}

func TestFPArithmetic(t *testing.T) {
	p := &mir.Prog{Entry: "main", HostFns: []string{"out_f64"}}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	// f0 = sqrt((1.5+2.5)*4.0 - 7.0) = sqrt(9) = 3
	b.Emit(&mir.Instr{Op: vx.MOVSD, A: mir.PReg(vx.F0), B: mir.FImm(1.5)})
	b.Emit(&mir.Instr{Op: vx.MOVSD, A: mir.PReg(vx.F1), B: mir.FImm(2.5)})
	b.Emit(&mir.Instr{Op: vx.ADDSD, A: mir.PReg(vx.F0), B: mir.PReg(vx.F1)})
	b.Emit(&mir.Instr{Op: vx.MOVSD, A: mir.PReg(vx.F1), B: mir.FImm(4.0)})
	b.Emit(&mir.Instr{Op: vx.MULSD, A: mir.PReg(vx.F0), B: mir.PReg(vx.F1)})
	b.Emit(&mir.Instr{Op: vx.MOVSD, A: mir.PReg(vx.F1), B: mir.FImm(7.0)})
	b.Emit(&mir.Instr{Op: vx.SUBSD, A: mir.PReg(vx.F0), B: mir.PReg(vx.F1)})
	b.Emit(&mir.Instr{Op: vx.SQRTSD, A: mir.PReg(vx.F0), B: mir.PReg(vx.F0)})
	b.Emit(&mir.Instr{Op: vx.CALLQ, A: mir.Sym("out_f64"), NFPArgs: 1})
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.Imm(0)})
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	m.BindHost(vm.HostFn{Name: "out_f64", Fn: func(m *vm.Machine) {
		m.Output = append(m.Output, m.Regs[vx.F0])
		m.Regs[vx.R0] = 0
	}})
	if trap := m.Run(); trap != vm.TrapNone {
		t.Fatalf("trap %v: %s", trap, m.TrapMsg)
	}
	got := math.Float64frombits(m.Output[0])
	if got != 3.0 {
		t.Fatalf("result = %v, want 3", got)
	}
}

func TestFlagsAndConditions(t *testing.T) {
	cases := []struct {
		a, b int64
		cond vx.Cond
		want bool
	}{
		{1, 1, vx.CondE, true},
		{1, 2, vx.CondE, false},
		{1, 2, vx.CondNE, true},
		{1, 2, vx.CondL, true},
		{2, 1, vx.CondL, false},
		{2, 2, vx.CondLE, true},
		{3, 2, vx.CondG, true},
		{-1, 1, vx.CondL, true},
		{-1, 1, vx.CondB, false}, // unsigned: 0xFFFF.. > 1
		{1, -1, vx.CondB, true},
		{2, 2, vx.CondGE, true},
		{2, 3, vx.CondA, false},
		{3, 2, vx.CondA, true},
		{2, 2, vx.CondAE, true},
		{2, 2, vx.CondBE, true},
	}
	for _, c := range cases {
		p := &mir.Prog{Entry: "main"}
		f := &mir.Fn{Name: "main"}
		b := f.NewBlock()
		b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(c.a)})
		b.Emit(&mir.Instr{Op: vx.CMPQ, A: mir.PReg(vx.R1), B: mir.Imm(c.b)})
		b.Emit(&mir.Instr{Op: vx.SETCC, Cond: c.cond, A: mir.PReg(vx.R0)})
		b.Emit(&mir.Instr{Op: vx.RET})
		p.Fns = []*mir.Fn{f}
		m := vm.New(mustAssemble(t, p))
		m.Run()
		want := int64(0)
		if c.want {
			want = 1
		}
		if m.ExitCode != want {
			t.Errorf("cmp(%d,%d) set%s = %d, want %d", c.a, c.b, c.cond, m.ExitCode, want)
		}
	}
}

func TestUcomisdNaN(t *testing.T) {
	p := &mir.Prog{Entry: "main"}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.MOVSD, A: mir.PReg(vx.F0), B: mir.FImm(math.NaN())})
	b.Emit(&mir.Instr{Op: vx.MOVSD, A: mir.PReg(vx.F1), B: mir.FImm(1.0)})
	b.Emit(&mir.Instr{Op: vx.UCOMISD, A: mir.PReg(vx.F0), B: mir.PReg(vx.F1)})
	b.Emit(&mir.Instr{Op: vx.SETCC, Cond: vx.CondP, A: mir.PReg(vx.R0)})
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	m.Run()
	if m.ExitCode != 1 {
		t.Fatalf("NaN compare should set PF; exit = %d", m.ExitCode)
	}
}

// TestTwoNaNOperandsKeepDestination: ADDSD and MULSD of two NaNs keep the
// destination's payload (quieted), as SUBSD and DIVSD do, in the register and
// the memory form and on both dispatchers. Host calls scramble FPRs to
// distinct NaNs, so a corrupted run meets this case; before the rule was
// spelled out the fast loop kept the source's payload where Step kept the
// destination's.
func TestTwoNaNOperandsKeepDestination(t *testing.T) {
	const dst, src = 0x7ff4_9190_1c53_87f2, 0x7ff8_0000_0000_0abc // signaling, quiet
	for _, op := range []vx.Op{vx.ADDSD, vx.MULSD, vx.SUBSD, vx.DIVSD} {
		for _, viaMem := range []bool{false, true} {
			p := &mir.Prog{Entry: "main", Globals: []mir.Global{{Name: "g", Size: 8}}}
			f := &mir.Fn{Name: "main"}
			b := f.NewBlock()
			b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(dst)})
			b.Emit(&mir.Instr{Op: vx.MOVQ2SD, A: mir.PReg(vx.F0), B: mir.PReg(vx.R1)})
			b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.MemSym("g", 0), B: mir.Imm(src)})
			b.Emit(&mir.Instr{Op: vx.MOVSD, A: mir.PReg(vx.F1), B: mir.MemSym("g", 0)})
			if viaMem {
				b.Emit(&mir.Instr{Op: op, A: mir.PReg(vx.F0), B: mir.MemSym("g", 0)})
			} else {
				b.Emit(&mir.Instr{Op: op, A: mir.PReg(vx.F0), B: mir.PReg(vx.F1)})
			}
			b.Emit(&mir.Instr{Op: vx.RET})
			p.Fns = []*mir.Fn{f}
			img := mustAssemble(t, p)
			for _, loop := range []string{"fast", "traced", "stepped"} {
				m := vm.New(img)
				switch loop {
				case "fast":
					m.Run()
				case "traced":
					m.Trace = vm.NewTraceRing(4)
					m.Run()
				case "stepped":
					m.RunStepped()
				}
				if got := m.Regs[vx.F0]; m.Trap != vm.TrapNone || got != dst|1<<51 {
					t.Errorf("%s viaMem=%v on the %s loop: %#x (trap %v), want %#x", op, viaMem, loop, got, m.Trap, uint64(dst|1<<51))
				}
			}
		}
	}
}

func TestPushPopAndFlagsSaveRestore(t *testing.T) {
	p := &mir.Prog{Entry: "main"}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(1)})
	b.Emit(&mir.Instr{Op: vx.CMPQ, A: mir.PReg(vx.R1), B: mir.Imm(1)}) // ZF set
	b.Emit(&mir.Instr{Op: vx.PUSHF})
	b.Emit(&mir.Instr{Op: vx.CMPQ, A: mir.PReg(vx.R1), B: mir.Imm(99)}) // ZF clear
	b.Emit(&mir.Instr{Op: vx.POPF})
	b.Emit(&mir.Instr{Op: vx.SETCC, Cond: vx.CondE, A: mir.PReg(vx.R0)}) // should see saved ZF
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	m.Run()
	if m.ExitCode != 1 {
		t.Fatalf("flags not restored by popf; exit = %d", m.ExitCode)
	}
}

func TestHookObservesAndDetaches(t *testing.T) {
	img := mustAssemble(t, buildFactorial())
	m := vm.New(img)
	bindOut(m)
	seen := 0
	everyInstr(m, func(int32, *vm.Inst) bool {
		seen++
		return seen < 5 // detach
	})
	if m.Halted || m.InstrCount != 5 {
		t.Fatalf("observer detached at 5 left the machine halted=%v at instruction %d", m.Halted, m.InstrCount)
	}
	m.Run()
	if seen != 5 {
		t.Fatalf("hook ran %d times after detach at 5", seen)
	}
	if m.Trap != vm.TrapNone || len(m.Output) != 1 || m.Output[0] != 3628800 {
		t.Fatalf("run on after the detach: trap %v output %v", m.Trap, m.Output)
	}
}

func TestFlipBitChangesOutcome(t *testing.T) {
	img := mustAssemble(t, buildFactorial())
	// Flip the accumulator's low bit right after the first IMULQ: outcome
	// must differ from the golden product.
	m := vm.New(img)
	bindOut(m)
	everyInstr(m, func(_ int32, in *vm.Inst) bool {
		if in.Op == vx.IMULQ {
			m.FlipBit(vx.R0, 0)
			return false
		}
		return true
	})
	m.Run()
	if m.Output[0] == 3628800 {
		t.Fatalf("bit flip had no effect on output")
	}
}

func TestScrambleCatchesCallerSavedUse(t *testing.T) {
	// Host calls clobber caller-saved registers. A program keeping a live
	// value in R4 across a host call must observe garbage.
	p := &mir.Prog{Entry: "main", HostFns: []string{"out_i64"}}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R4), B: mir.Imm(1234)})
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(1)})
	b.Emit(&mir.Instr{Op: vx.CALLQ, A: mir.Sym("out_i64"), NIntArgs: 1})
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.PReg(vx.R4)})
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	bindOut(m)
	m.Run()
	if m.ExitCode == 1234 {
		t.Fatalf("caller-saved register survived a host call; scrambling broken")
	}
}

func TestCalleeSavedSurvivesHostCall(t *testing.T) {
	p := &mir.Prog{Entry: "main", HostFns: []string{"out_i64"}}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R9), B: mir.Imm(77)})
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(1)})
	b.Emit(&mir.Instr{Op: vx.CALLQ, A: mir.Sym("out_i64"), NIntArgs: 1})
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.PReg(vx.R9)})
	b.Emit(&mir.Instr{Op: vx.SUBQ, A: mir.PReg(vx.R0), B: mir.Imm(77)})
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	bindOut(m)
	m.Run()
	if m.ExitCode != 0 {
		t.Fatalf("callee-saved register not preserved: exit %d", m.ExitCode)
	}
}

func TestCvtRoundTrip(t *testing.T) {
	p := &mir.Prog{Entry: "main"}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(-42)})
	b.Emit(&mir.Instr{Op: vx.CVTSI2SD, A: mir.PReg(vx.F0), B: mir.PReg(vx.R1)})
	b.Emit(&mir.Instr{Op: vx.CVTTSD2SI, A: mir.PReg(vx.R0), B: mir.PReg(vx.F0)})
	b.Emit(&mir.Instr{Op: vx.SUBQ, A: mir.PReg(vx.R0), B: mir.Imm(-42)})
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	m.Run()
	if m.ExitCode != 0 {
		t.Fatalf("cvt round trip failed: %d", m.ExitCode)
	}
}

func TestWildReturnAddressTraps(t *testing.T) {
	// Corrupt the return address on the stack; RET must either trap or wander,
	// but a huge value must be TrapBadPC.
	p := &mir.Prog{Entry: "main"}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.Mem(int(vx.SP), 0), B: mir.Imm(1 << 50)})
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f}
	m := vm.New(mustAssemble(t, p))
	if trap := m.Run(); trap != vm.TrapBadPC {
		t.Fatalf("trap = %v, want badpc", trap)
	}
}
