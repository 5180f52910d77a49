// Package mir defines the machine instruction representation (MIR) produced
// by the compiler backend. MIR is the layer at which REFINE instruments code:
// it is target-shaped (VX64 opcodes, physical or virtual registers, memory
// operands, a FLAGS register) but still structured as functions of basic
// blocks, so control flow can be edited before final encoding — exactly the
// property the paper exploits (§4.2.2: inject "right before code emission").
package mir

import (
	"fmt"
	"strings"

	"repro/internal/vx"
)

// VRegBase is the first virtual register number. Register operands below
// VRegBase are physical vx.Reg values; operands at or above it are virtual
// registers awaiting allocation.
const VRegBase = 256

// RegClass distinguishes integer from floating-point virtual registers.
type RegClass uint8

const (
	ClassInt RegClass = iota
	ClassFP
)

// Operand is one instruction operand. Exactly one Kind is meaningful.
type Operand struct {
	Kind OperandKind
	Reg  int     // physical (< VRegBase) or virtual (>= VRegBase) register
	Imm  int64   // immediate value
	F    float64 // FP immediate (materialized via constant pool by the assembler)
	// Memory operand: [Base + Index*Scale + Disp]. Index < 0 means no index.
	Base  int
	Index int
	Scale int32
	Disp  int32
	// Sym references a function (for CALLQ) or global (for LEAQ/loads of
	// globals); resolved by the assembler.
	Sym string
	// Block index target for JMP/JCC.
	Target int
}

// OperandKind enumerates operand shapes: the forms of the opcode table
// (vx.Ops), which says which ones each op admits.
type OperandKind = vx.Form

const (
	KindNone  = vx.FormNone
	KindReg   = vx.FormReg
	KindImm   = vx.FormImm
	KindFImm  = vx.FormFImm
	KindMem   = vx.FormMem
	KindSym   = vx.FormSym
	KindLabel = vx.FormLabel
)

// Reg constructs a register operand (physical or virtual).
func Reg(r int) Operand { return Operand{Kind: KindReg, Reg: r} }

// PReg constructs a physical register operand.
func PReg(r vx.Reg) Operand { return Operand{Kind: KindReg, Reg: int(r)} }

// Imm constructs an integer immediate operand.
func Imm(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// FImm constructs a floating-point immediate operand.
func FImm(v float64) Operand { return Operand{Kind: KindFImm, F: v} }

// Mem constructs a [base+disp] memory operand.
func Mem(base int, disp int32) Operand {
	return Operand{Kind: KindMem, Base: base, Index: -1, Disp: disp}
}

// MemIdx constructs a [base+index*scale+disp] memory operand.
func MemIdx(base, index int, scale, disp int32) Operand {
	return Operand{Kind: KindMem, Base: base, Index: index, Scale: scale, Disp: disp}
}

// MemSym constructs a memory operand addressing a global symbol plus
// displacement; the assembler rewrites it to an absolute address.
func MemSym(sym string, disp int32) Operand {
	return Operand{Kind: KindMem, Base: -1, Index: -1, Disp: disp, Sym: sym}
}

// Sym constructs a symbol operand (call target or global address for LEAQ).
func Sym(name string) Operand { return Operand{Kind: KindSym, Sym: name} }

// Label constructs a block-target operand for branches.
func Label(block int) Operand { return Operand{Kind: KindLabel, Target: block} }

func (o Operand) String() string {
	switch o.Kind {
	case KindReg:
		if o.Reg >= VRegBase {
			return fmt.Sprintf("v%d", o.Reg-VRegBase)
		}
		return vx.Reg(o.Reg).String()
	case KindImm:
		return fmt.Sprintf("$%d", o.Imm)
	case KindFImm:
		return fmt.Sprintf("$%g", o.F)
	case KindMem:
		var b strings.Builder
		b.WriteByte('[')
		if o.Sym != "" {
			b.WriteString(o.Sym)
		} else {
			b.WriteString(regName(o.Base))
		}
		if o.Index >= 0 {
			fmt.Fprintf(&b, "+%s*%d", regName(o.Index), o.Scale)
		}
		if o.Disp != 0 {
			fmt.Fprintf(&b, "%+d", o.Disp)
		}
		b.WriteByte(']')
		return b.String()
	case KindSym:
		return o.Sym
	case KindLabel:
		return fmt.Sprintf(".b%d", o.Target)
	default:
		return "_"
	}
}

func regName(r int) string {
	if r >= VRegBase {
		return fmt.Sprintf("v%d", r-VRegBase)
	}
	if r < 0 {
		return "?"
	}
	return vx.Reg(r).String()
}

// Instr is one machine instruction. The operand convention follows x64
// two-address style: A is the destination (and, for two-address arithmetic,
// also the first source); B is the source.
type Instr struct {
	Op   vx.Op
	Cond vx.Cond // for JCC / SETCC
	A, B Operand

	// NArgs records, for CALLQ, how many integer and FP argument registers
	// are live into the call (used by the VM host-call ABI and by liveness).
	NIntArgs, NFPArgs int

	// Regs carries the virtual-register list of the VCALL (arguments, in IR
	// order) and VENTRY (parameter definitions) pseudo-instructions.
	Regs []int
	// CallRes is the VCALL result virtual register, or -1.
	CallRes int

	// FI metadata: SiteID is assigned by instrumentation passes to identify
	// the static site; Instrumented marks instructions that belong to FI
	// instrumentation and must never themselves be injection targets.
	SiteID       int32
	Instrumented bool
}

func (i *Instr) String() string {
	switch {
	case i.Op == vx.JCC:
		return fmt.Sprintf("j%s %s", i.Cond, i.A)
	case i.Op == vx.SETCC:
		return fmt.Sprintf("set%s %s", i.Cond, i.A)
	case i.B.Kind != KindNone:
		return fmt.Sprintf("%s %s, %s", i.Op, i.A, i.B)
	case i.A.Kind != KindNone:
		return fmt.Sprintf("%s %s", i.Op, i.A)
	default:
		return i.Op.String()
	}
}

// Block is a basic block: straight-line instructions ending (implicitly or
// explicitly) in a terminator. Succs lists successor block indices.
type Block struct {
	Index  int
	Instrs []*Instr
	Succs  []int
}

// Fn is a machine function.
type Fn struct {
	Name   string
	Blocks []*Block

	// Frame layout, filled by register allocation / frame lowering.
	FrameSize   int32    // bytes of locals + spills below BP
	UsedCallee  []vx.Reg // callee-saved registers the function must preserve
	NumVRegs    int      // number of virtual registers created (isel bookkeeping)
	VRegClasses []RegClass
}

// NewBlock appends a new empty block to the function and returns it.
func (f *Fn) NewBlock() *Block {
	b := &Block{Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Emit appends an instruction to the block.
func (b *Block) Emit(i *Instr) *Instr {
	b.Instrs = append(b.Instrs, i)
	return i
}

// Prog is a whole machine program: functions plus global data.
type Prog struct {
	Fns     []*Fn
	Globals []Global
	// HostFns lists host (native library) functions callable by name via
	// CALLQ; the VM binds them at load time.
	HostFns []string
	// Entry is the name of the entry function.
	Entry string
}

// Global is a named chunk of initialized or zeroed data memory.
type Global struct {
	Name  string
	Size  int64  // bytes
	Init  []byte // nil or shorter than Size ⇒ remainder zeroed
	Align int64  // 0 ⇒ 8
}

// Fn returns the function with the given name, or nil.
func (p *Prog) Fn(name string) *Fn {
	for _, f := range p.Fns {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// String renders the program as readable assembly.
func (p *Prog) String() string {
	var b strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&b, ".global %s %d\n", g.Name, g.Size)
	}
	for _, f := range p.Fns {
		b.WriteString(f.String())
	}
	return b.String()
}

func (f *Fn) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", f.Name)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, ".b%d:\n", blk.Index)
		for _, in := range blk.Instrs {
			tag := ""
			if in.Instrumented {
				tag = "\t; fi"
			}
			fmt.Fprintf(&b, "\t%s%s\n", in, tag)
		}
	}
	return b.String()
}

// NumInstrs counts instructions in the function.
func (f *Fn) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Shape is the instruction as the opcode table sees it (post-RA): its
// fault-injection metadata derives from it.
func (i *Instr) Shape() vx.Shape {
	return vx.Shape{Op: i.Op, A: i.A.Kind, B: i.B.Kind, AReg: vx.Reg(i.A.Reg)}
}

// OutputRegs appends to dst the instruction's output registers, the
// fault-injection operand set shared by REFINE and PINFI (vx.Shape.Outputs).
func (i *Instr) OutputRegs(dst []vx.Reg) []vx.Reg {
	var buf [3]vx.Reg
	return append(dst, i.Shape().Outputs(&buf)...)
}

// Classify returns the -fi-instrs class of the instruction (vx.Shape.Class).
func (i *Instr) Classify() vx.Class { return i.Shape().Class() }
