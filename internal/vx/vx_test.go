package vx_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vx"
)

func TestRegisterClassesPartition(t *testing.T) {
	gprs, fprs := 0, 0
	for r := vx.Reg(0); r < vx.NumRegs; r++ {
		switch {
		case r.IsGPR():
			gprs++
			if r.IsFPR() || r.IsFlags() {
				t.Fatalf("register %s in two classes", r)
			}
		case r.IsFPR():
			fprs++
			if r.IsFlags() {
				t.Fatalf("register %s in two classes", r)
			}
		case r.IsFlags():
		default:
			t.Fatalf("register %d in no class", r)
		}
	}
	if gprs != 16 || fprs != 16 {
		t.Fatalf("gprs=%d fprs=%d, want 16/16", gprs, fprs)
	}
}

func TestCallerCalleeSavedDisjoint(t *testing.T) {
	seen := map[vx.Reg]string{}
	for _, r := range vx.CallerSavedGPR {
		seen[r] = "caller"
	}
	for _, r := range vx.CalleeSavedGPR {
		if seen[r] != "" {
			t.Fatalf("%s is both caller- and callee-saved", r)
		}
		seen[r] = "callee"
	}
	for _, r := range vx.CallerSavedFPR {
		seen[r] = "caller"
	}
	for _, r := range vx.CalleeSavedFPR {
		if seen[r] == "caller" {
			t.Fatalf("%s is both caller- and callee-saved", r)
		}
	}
	// SP and BP are special; BP must not be in the caller-saved set.
	for _, r := range vx.CallerSavedGPR {
		if r == vx.SP || r == vx.BP {
			t.Fatalf("%s must not be caller-saved", r)
		}
	}
}

func TestCondEvalComplements(t *testing.T) {
	pairs := [][2]vx.Cond{
		{vx.CondE, vx.CondNE},
		{vx.CondL, vx.CondGE},
		{vx.CondLE, vx.CondG},
		{vx.CondB, vx.CondAE},
		{vx.CondBE, vx.CondA},
		{vx.CondP, vx.CondNP},
		{vx.CondEO, vx.CondNEU},
	}
	err := quick.Check(func(flags uint8) bool {
		f := uint64(flags) & (vx.FlagZ | vx.FlagS | vx.FlagC | vx.FlagP)
		for _, p := range pairs {
			if p[0].Eval(f) == p[1].Eval(f) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCondOrderedNotEqual(t *testing.T) {
	// ONE = !Z && !P; on ordered non-equal compares exactly one of A/B holds.
	for _, f := range []uint64{0, vx.FlagZ, vx.FlagC, vx.FlagZ | vx.FlagC | vx.FlagP} {
		one := vx.CondONE.Eval(f)
		want := f&vx.FlagZ == 0 && f&vx.FlagP == 0
		if one != want {
			t.Fatalf("ONE on flags %b = %v, want %v", f, one, want)
		}
	}
}

func TestOpStringsAndCosts(t *testing.T) {
	for op := vx.Op(0); op < vx.NumOps; op++ {
		if op.String() == "" || op.String()[0] == 'o' && op.String() == "op?" {
			t.Fatalf("op %d has no name", op)
		}
		if op.CycleCost() <= 0 {
			t.Fatalf("op %s has non-positive cost", op)
		}
	}
	if vx.IDIVQ.CycleCost() <= vx.ADDQ.CycleCost() {
		t.Fatal("divide must cost more than add")
	}
}

func TestSetsFlags(t *testing.T) {
	setsFlags := func(op vx.Op) bool { return vx.Ops[op].Implicit&vx.OutFlags != 0 }
	for _, op := range []vx.Op{vx.ADDQ, vx.SUBQ, vx.CMPQ, vx.TESTQ, vx.UCOMISD, vx.NEGQ, vx.POPF} {
		if !setsFlags(op) {
			t.Fatalf("%s must set flags", op)
		}
	}
	for _, op := range []vx.Op{vx.MOVQ, vx.MOVSD, vx.LEAQ, vx.ADDSD, vx.NOTQ, vx.JMP, vx.PUSHF} {
		if setsFlags(op) {
			t.Fatalf("%s must not set flags", op)
		}
	}
}

// TestDerivedOutputsAndClass pins, for every op and every A shape — r1, f1,
// sp, bp, a memory operand, none; B absent — the outputs and class the table
// derives, as "outputs/class". These are the MIR-level OutputRegs and
// Classify semantics the assembler used to store in every instruction,
// written out, with two deliberate differences: LEAQ is arithm with a
// memory operand too (it reads no memory), and a pseudo derives no output
// from a register A (its A is a symbol or nothing).
func TestDerivedOutputsAndClass(t *testing.T) {
	shapes := [6]struct {
		a vx.Form
		r vx.Reg
	}{{vx.FormReg, vx.R1}, {vx.FormReg, vx.F1}, {vx.FormReg, vx.SP}, {vx.FormReg, vx.BP}, {vx.FormMem, 0}, {vx.FormNone, 0}}
	want := map[vx.Op][6]string{
		vx.NOP:       {"-/ctl", "-/ctl", "-/ctl", "-/ctl", "-/ctl", "-/ctl"},
		vx.MOVQ:      {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.MOVSD:     {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.LEAQ:      {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/arithm", "-/arithm"},
		vx.MOVQ2SD:   {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.MOVSD2Q:   {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.ADDQ:      {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.SUBQ:      {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.IMULQ:     {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.IDIVQ:     {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.IREMQ:     {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.ANDQ:      {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.ORQ:       {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.XORQ:      {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.SHLQ:      {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.SHRQ:      {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.SARQ:      {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.NEGQ:      {"r1 flags/arithm", "f1 flags/arithm", "sp flags/stack", "bp flags/stack", "flags/mem", "flags/arithm"},
		vx.NOTQ:      {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.ADDSD:     {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.SUBSD:     {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.MULSD:     {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.DIVSD:     {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.SQRTSD:    {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.MINSD:     {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.MAXSD:     {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.ANDPD:     {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.XORPD:     {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.CVTSI2SD:  {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.CVTTSD2SI: {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.CMPQ:      {"flags/arithm", "flags/arithm", "flags/stack", "flags/stack", "flags/mem", "flags/arithm"},
		vx.TESTQ:     {"flags/arithm", "flags/arithm", "flags/stack", "flags/stack", "flags/mem", "flags/arithm"},
		vx.UCOMISD:   {"flags/arithm", "flags/arithm", "flags/stack", "flags/stack", "flags/mem", "flags/arithm"},
		vx.SETCC:     {"r1/arithm", "f1/arithm", "sp/stack", "bp/stack", "-/mem", "-/arithm"},
		vx.JMP:       {"-/ctl", "-/ctl", "-/ctl", "-/ctl", "-/ctl", "-/ctl"},
		vx.JCC:       {"-/ctl", "-/ctl", "-/ctl", "-/ctl", "-/ctl", "-/ctl"},
		vx.CALLQ:     {"-/stack", "-/stack", "-/stack", "-/stack", "-/stack", "-/stack"},
		vx.RET:       {"-/stack", "-/stack", "-/stack", "-/stack", "-/stack", "-/stack"},
		vx.PUSHQ:     {"sp/stack", "sp/stack", "sp/stack", "sp/stack", "sp/stack", "sp/stack"},
		vx.POPQ:      {"r1 sp/stack", "f1 sp/stack", "sp sp/stack", "bp sp/stack", "sp/stack", "sp/stack"},
		vx.PUSHF:     {"sp/stack", "sp/stack", "sp/stack", "sp/stack", "sp/stack", "sp/stack"},
		vx.POPF:      {"flags sp/stack", "flags sp/stack", "flags sp/stack", "flags sp/stack", "flags sp/stack", "flags sp/stack"},
		vx.HALT:      {"-/ctl", "-/ctl", "-/ctl", "-/ctl", "-/ctl", "-/ctl"},
		vx.VCALL:     {"-/arithm", "-/arithm", "-/stack", "-/stack", "-/mem", "-/arithm"},
		vx.VENTRY:    {"-/arithm", "-/arithm", "-/stack", "-/stack", "-/mem", "-/arithm"},
	}
	if len(want) != int(vx.NumOps) {
		t.Fatalf("%d ops pinned, %d in the table", len(want), vx.NumOps)
	}
	for op, cols := range want {
		for i, sh := range shapes {
			s := vx.Shape{Op: op, A: sh.a, AReg: sh.r}
			var buf [3]vx.Reg
			var regs []string
			for _, r := range s.Outputs(&buf) {
				regs = append(regs, r.String())
			}
			got := strings.Join(regs, " ")
			if got == "" {
				got = "-"
			}
			if got += "/" + s.Class().String(); got != cols[i] {
				t.Errorf("%s with A shape %d: %s, want %s", op, i, got, cols[i])
			}
		}
	}
}
