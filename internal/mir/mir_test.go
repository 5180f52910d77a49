package mir_test

import (
	"strings"
	"testing"

	"repro/internal/mir"
	"repro/internal/vx"
)

func TestOutputRegsArithmetic(t *testing.T) {
	in := &mir.Instr{Op: vx.ADDQ, A: mir.PReg(vx.R4), B: mir.Imm(1)}
	outs := in.OutputRegs(nil)
	if len(outs) != 2 || outs[0] != vx.R4 || outs[1] != vx.RFLAGS {
		t.Fatalf("addq outputs = %v, want [r4 flags]", outs)
	}
}

func TestOutputRegsMovNoFlags(t *testing.T) {
	in := &mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R4), B: mir.Imm(1)}
	outs := in.OutputRegs(nil)
	if len(outs) != 1 || outs[0] != vx.R4 {
		t.Fatalf("movq outputs = %v, want [r4]", outs)
	}
}

func TestOutputRegsStoreHasNone(t *testing.T) {
	in := &mir.Instr{Op: vx.MOVQ, A: mir.Mem(int(vx.R4), 8), B: mir.PReg(vx.R5)}
	if outs := in.OutputRegs(nil); len(outs) != 0 {
		t.Fatalf("store outputs = %v, want none", outs)
	}
}

func TestOutputRegsStack(t *testing.T) {
	push := &mir.Instr{Op: vx.PUSHQ, A: mir.PReg(vx.R4)}
	if outs := push.OutputRegs(nil); len(outs) != 1 || outs[0] != vx.SP {
		t.Fatalf("push outputs = %v, want [sp]", outs)
	}
	pop := &mir.Instr{Op: vx.POPQ, A: mir.PReg(vx.R4)}
	outs := pop.OutputRegs(nil)
	if len(outs) != 2 || outs[0] != vx.R4 || outs[1] != vx.SP {
		t.Fatalf("pop outputs = %v, want [r4 sp]", outs)
	}
	popf := &mir.Instr{Op: vx.POPF}
	outs = popf.OutputRegs(nil)
	if len(outs) != 2 || outs[0] != vx.RFLAGS {
		t.Fatalf("popf outputs = %v", outs)
	}
}

func TestOutputRegsControlTransfersExcluded(t *testing.T) {
	for _, op := range []vx.Op{vx.CALLQ, vx.RET, vx.JMP, vx.JCC, vx.HALT, vx.NOP} {
		in := &mir.Instr{Op: op}
		if outs := in.OutputRegs(nil); len(outs) != 0 {
			t.Fatalf("%s outputs = %v, want none (uninstrumentable)", op, outs)
		}
	}
}

func TestOutputRegsCompares(t *testing.T) {
	for _, op := range []vx.Op{vx.CMPQ, vx.TESTQ, vx.UCOMISD} {
		in := &mir.Instr{Op: op, A: mir.PReg(vx.R1), B: mir.PReg(vx.R2)}
		outs := in.OutputRegs(nil)
		if len(outs) != 1 || outs[0] != vx.RFLAGS {
			t.Fatalf("%s outputs = %v, want [flags]", op, outs)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		in   *mir.Instr
		want vx.Class
	}{
		{&mir.Instr{Op: vx.ADDQ, A: mir.PReg(vx.R1), B: mir.Imm(1)}, vx.ClassArith},
		{&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Mem(int(vx.R2), 0)}, vx.ClassMem},
		{&mir.Instr{Op: vx.MOVQ, A: mir.Mem(int(vx.R2), 0), B: mir.PReg(vx.R1)}, vx.ClassMem},
		{&mir.Instr{Op: vx.PUSHQ, A: mir.PReg(vx.R1)}, vx.ClassStack},
		{&mir.Instr{Op: vx.SUBQ, A: mir.PReg(vx.SP), B: mir.Imm(32)}, vx.ClassStack},
		{&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.BP), B: mir.PReg(vx.SP)}, vx.ClassStack},
		{&mir.Instr{Op: vx.JMP, A: mir.Label(0)}, vx.ClassCtl},
		{&mir.Instr{Op: vx.CALLQ, A: mir.Sym("f")}, vx.ClassStack},
		{&mir.Instr{Op: vx.SETCC, Cond: vx.CondE, A: mir.PReg(vx.R1)}, vx.ClassArith},
		{&mir.Instr{Op: vx.MOVSD, A: mir.PReg(vx.F1), B: mir.FImm(1.5)}, vx.ClassArith},
		// LEAQ computes an address and reads no memory: arithm in every
		// spelling.
		{&mir.Instr{Op: vx.LEAQ, A: mir.PReg(vx.R1), B: mir.Sym("g")}, vx.ClassArith},
		{&mir.Instr{Op: vx.LEAQ, A: mir.PReg(vx.R1), B: mir.MemSym("g", 8)}, vx.ClassArith},
		{&mir.Instr{Op: vx.LEAQ, A: mir.PReg(vx.R1), B: mir.Mem(int(vx.BP), -8)}, vx.ClassArith},
	}
	for _, c := range cases {
		if got := c.in.Classify(); got != c.want {
			t.Errorf("%v classified %v, want %v", c.in, got, c.want)
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   *mir.Instr
		want string
	}{
		{&mir.Instr{Op: vx.ADDQ, A: mir.PReg(vx.R1), B: mir.Imm(5)}, "addq r1, $5"},
		{&mir.Instr{Op: vx.JCC, Cond: vx.CondLE, A: mir.Label(3)}, "jle .b3"},
		{&mir.Instr{Op: vx.SETCC, Cond: vx.CondA, A: mir.PReg(vx.R0)}, "seta r0"},
		{&mir.Instr{Op: vx.RET}, "ret"},
		{&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.MemIdx(int(vx.R2), int(vx.R3), 8, 16)}, "movq r1, [r2+r3*8+16]"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestProgPrinting(t *testing.T) {
	p := &mir.Prog{Entry: "main"}
	p.Globals = append(p.Globals, mir.Global{Name: "g", Size: 8})
	f := &mir.Fn{Name: "main"}
	blk := f.NewBlock()
	blk.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.Imm(0)})
	blk.Emit(&mir.Instr{Op: vx.RET, Instrumented: true})
	p.Fns = append(p.Fns, f)
	s := p.String()
	for _, want := range []string{".global g 8", "main:", ".b0:", "movq r0, $0", "; fi"} {
		if !strings.Contains(s, want) {
			t.Fatalf("printer output missing %q:\n%s", want, s)
		}
	}
	if f.NumInstrs() != 2 {
		t.Fatalf("NumInstrs = %d", f.NumInstrs())
	}
}

func TestVRegOperandPrinting(t *testing.T) {
	op := mir.Reg(mir.VRegBase + 7)
	if op.String() != "v7" {
		t.Fatalf("vreg prints as %q", op.String())
	}
}
