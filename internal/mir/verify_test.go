package mir

import (
	"strings"
	"testing"

	"repro/internal/vx"
)

// okFn builds a minimal well-formed post-RA function:
//
//	b0: MOVQ R1, $7; CMPQ R1, $0; JCC ne -> b1; JMP -> b2
//	b1: ADDSD F0, F1; RET
//	b2: RET
func okFn() *Fn {
	f := &Fn{Name: "f"}
	b0 := f.NewBlock()
	b0.Emit(&Instr{Op: vx.MOVQ, A: PReg(vx.R1), B: Imm(7)})
	b0.Emit(&Instr{Op: vx.CMPQ, A: PReg(vx.R1), B: Imm(0)})
	b0.Emit(&Instr{Op: vx.JCC, Cond: vx.CondNE, A: Label(1)})
	b0.Emit(&Instr{Op: vx.JMP, A: Label(2)})
	b1 := f.NewBlock()
	b1.Emit(&Instr{Op: vx.ADDSD, A: PReg(vx.F0), B: PReg(vx.F1)})
	b1.Emit(&Instr{Op: vx.RET})
	b2 := f.NewBlock()
	b2.Emit(&Instr{Op: vx.RET})
	return f
}

func TestVerifyFnAcceptsWellFormed(t *testing.T) {
	if err := VerifyFn(okFn(), PostRA); err != nil {
		t.Fatalf("well-formed fn rejected: %v", err)
	}
}

// TestVerifyFnRejections mutates the well-formed function one invariant at a
// time; every mutation must be caught, and the message must carry the
// substring a person debugging the pipeline would grep for.
func TestVerifyFnRejections(t *testing.T) {
	cases := []struct {
		name   string
		mut    func(f *Fn)
		mode   VerifyMode
		substr string
	}{
		{"branch target out of range", func(f *Fn) {
			f.Blocks[0].Instrs[3].A = Label(99)
		}, PostRA, "branch target 99 out of range"},
		{"negative branch target", func(f *Fn) {
			f.Blocks[0].Instrs[2].A = Label(-1)
		}, PostRA, "branch target -1 out of range"},
		{"condition code out of range", func(f *Fn) {
			f.Blocks[0].Instrs[2].Cond = vx.NumConds
		}, PostRA, "condition code"},
		{"jmp to register", func(f *Fn) {
			f.Blocks[0].Instrs[3].A = PReg(vx.R1)
		}, PostRA, "operand A kind"},
		{"fpr in integer alu", func(f *Fn) {
			f.Blocks[0].Instrs[1].A = PReg(vx.F3)
		}, PostRA, "GPR-only slot"},
		{"gpr in fp alu", func(f *Fn) {
			f.Blocks[1].Instrs[0].B = PReg(vx.R4)
		}, PostRA, "FPR-only slot"},
		{"vreg survives regalloc", func(f *Fn) {
			f.Blocks[0].Instrs[0].A = Reg(VRegBase + 3)
		}, PostRA, "survives past register allocation"},
		{"flags register as operand", func(f *Fn) {
			f.Blocks[0].Instrs[0].A = PReg(vx.RFLAGS)
		}, PostRA, "not an addressable architectural register"},
		{"two memory operands", func(f *Fn) {
			f.Blocks[0].Instrs[1] = &Instr{Op: vx.CMPQ, A: Mem(int(vx.SP), 0), B: Mem(int(vx.SP), 8)}
		}, PostRA, "two memory operands"},
		{"bad index scale", func(f *Fn) {
			f.Blocks[0].Instrs[0].B = MemIdx(int(vx.SP), int(vx.R2), 3, 0)
		}, PostRA, "scale 3"},
		{"fp base register", func(f *Fn) {
			f.Blocks[0].Instrs[0].B = Mem(int(vx.F1), 0)
		}, PostRA, "base"},
		{"immediate into fp move", func(f *Fn) {
			f.Blocks[1].Instrs[0] = &Instr{Op: vx.MOVSD, A: PReg(vx.F0), B: Imm(1)}
		}, PostRA, "operand B kind"},
		{"neg with memory destination", func(f *Fn) {
			f.Blocks[0].Instrs[1] = &Instr{Op: vx.NEGQ, A: Mem(int(vx.SP), 0)}
		}, PostRA, "operand A kind"},
		{"xorpd with memory destination", func(f *Fn) {
			f.Blocks[1].Instrs[0] = &Instr{Op: vx.XORPD, A: Mem(int(vx.SP), 0), B: PReg(vx.F1)}
		}, PostRA, "operand A kind"},
		{"call without symbol", func(f *Fn) {
			f.Blocks[0].Instrs[1] = &Instr{Op: vx.CALLQ, A: Sym("")}
		}, PostRA, "empty symbol"},
		{"call arity beyond abi", func(f *Fn) {
			f.Blocks[0].Instrs[1] = &Instr{Op: vx.CALLQ, A: Sym("g"), NIntArgs: 99}
		}, PostRA, "exceeds ABI registers"},
		{"pseudo survives regalloc", func(f *Fn) {
			f.Blocks[0].Instrs[1] = &Instr{Op: vx.VCALL, A: Sym("g"), CallRes: -1}
		}, PostRA, "pseudo"},
		{"ventry outside entry block", func(f *Fn) {
			f.NumVRegs = 0
			f.Blocks[1].Instrs[0] = &Instr{Op: vx.VENTRY}
		}, PreRA, "ventry outside the entry block"},
		{"vreg out of range", func(f *Fn) {
			f.NumVRegs = 2
			f.VRegClasses = []RegClass{ClassInt, ClassInt}
			f.Blocks[0].Instrs[0].A = Reg(VRegBase + 5)
		}, PreRA, "out of range"},
		{"fp-class vreg in integer slot", func(f *Fn) {
			f.NumVRegs = 1
			f.VRegClasses = []RegClass{ClassFP}
			f.Blocks[0].Instrs[1].A = Reg(VRegBase)
		}, PreRA, "FP-class in an integer slot"},
		{"block index mismatch", func(f *Fn) {
			f.Blocks[1].Index = 7
		}, PostRA, "has index 7"},
		{"successor out of range", func(f *Fn) {
			f.Blocks[0].Succs = []int{5}
		}, PostRA, "successor 5 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := okFn()
			tc.mut(f)
			err := VerifyFn(f, tc.mode)
			if err == nil {
				t.Fatalf("mutation not caught")
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("error %q does not mention %q", err, tc.substr)
			}
		})
	}
}

// TestVerifyFnPreRAAcceptsPseudos pins the pre-RA dialect: virtual registers
// with recorded classes, VENTRY in the entry block, VCALL with vreg lists.
func TestVerifyFnPreRAAcceptsPseudos(t *testing.T) {
	f := &Fn{Name: "f", NumVRegs: 2, VRegClasses: []RegClass{ClassInt, ClassFP}}
	b0 := f.NewBlock()
	b0.Emit(&Instr{Op: vx.VENTRY, Regs: []int{VRegBase}})
	b0.Emit(&Instr{Op: vx.MOVQ, A: Reg(VRegBase), B: Imm(1)})
	b0.Emit(&Instr{Op: vx.VCALL, A: Sym("g"), Regs: []int{VRegBase}, CallRes: VRegBase})
	b0.Emit(&Instr{Op: vx.RET})
	if err := VerifyFn(f, PreRA); err != nil {
		t.Fatalf("pre-RA dialect rejected: %v", err)
	}
}

// TestVerifyProgramResolution pins the whole-program checks that a single
// function cannot see: symbol uniqueness, entry resolution, call and global
// resolution.
func TestVerifyProgramResolution(t *testing.T) {
	mk := func() *Prog {
		f := okFn()
		f.Blocks[2].Instrs = []*Instr{
			{Op: vx.CALLQ, A: Sym("host_fn")},
			{Op: vx.LEAQ, A: PReg(vx.R1), B: Sym("glob")},
			{Op: vx.MOVQ, A: PReg(vx.R1), B: MemSym("glob", 0)},
			{Op: vx.RET},
		}
		return &Prog{
			Fns:     []*Fn{f},
			HostFns: []string{"host_fn"},
			Globals: []Global{{Name: "glob", Size: 8}},
			Entry:   "f",
		}
	}
	if err := Verify(mk(), PostRA); err != nil {
		t.Fatalf("well-formed program rejected: %v", err)
	}

	cases := []struct {
		name   string
		mut    func(p *Prog)
		substr string
	}{
		{"undefined entry", func(p *Prog) { p.Entry = "nope" }, "entry function"},
		{"undefined call target", func(p *Prog) { p.HostFns = nil }, "undefined symbol"},
		{"undefined lea global", func(p *Prog) {
			p.Fns[0].Blocks[2].Instrs[1].B = Sym("nope")
		}, "undefined global"},
		{"undefined memsym global", func(p *Prog) {
			p.Fns[0].Blocks[2].Instrs[2].B = MemSym("nope", 0)
		}, "undefined global"},
		{"duplicate function", func(p *Prog) { p.Fns = append(p.Fns, okFn()) }, "duplicate function"},
		{"duplicate global", func(p *Prog) {
			p.Globals = append(p.Globals, Global{Name: "glob", Size: 8})
		}, "duplicate global"},
		{"init larger than size", func(p *Prog) {
			p.Globals[0].Init = make([]byte, 16)
		}, "init larger than size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mk()
			tc.mut(p)
			err := Verify(p, PostRA)
			if err == nil {
				t.Fatalf("mutation not caught")
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("error %q does not mention %q", err, tc.substr)
			}
		})
	}
}
