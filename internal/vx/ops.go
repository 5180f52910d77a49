package vx

import "fmt"

// Form is the form of an instruction operand: the MIR operand kinds
// (mir.OperandKind) and the decoded ones (vm.OpndKind) are this type.
type Form uint8

const (
	FormNone Form = iota
	FormReg
	FormImm
	FormFImm
	FormMem
	FormSym   // a function (a call's target) or a global (LEAQ's address)
	FormLabel // a basic block (a branch's target)
)

// Forms is a set of operand forms.
type Forms uint8

// Has reports whether f is in the set.
func (s Forms) Has(f Form) bool { return s&(1<<f) != 0 }

// Assembled returns the forms an operand of these forms takes in an
// assembled image: a label or a call's symbol resolves into the
// instruction's target and leaves no operand, and a global's symbol — the
// only symbol an operand that also admits memory takes — becomes its
// absolute address, a memory operand.
func (s Forms) Assembled() Forms {
	const resolved = 1<<FormSym | 1<<FormLabel
	if s&resolved != 0 && !s.Has(FormMem) {
		s |= 1 << FormNone
	}
	return s &^ resolved
}

// RegClass is the register file a register operand must name.
type RegClass uint8

const (
	// AnyReg is a general-purpose or floating-point register: the file is
	// uniformly 64-bit, and the epilogue restores FP callee-saved registers
	// with plain MOVQ loads (codegen/frame.go).
	AnyReg RegClass = iota
	GPROnly
	FPROnly
)

// Admits reports whether r may be a register operand of the class. FLAGS is
// never an operand: it is written and read implicitly.
func (c RegClass) Admits(r Reg) bool {
	switch c {
	case GPROnly:
		return r.IsGPR()
	case FPROnly:
		return r.IsFPR()
	}
	return r.IsGPR() || r.IsFPR()
}

func (c RegClass) String() string { return [...]string{"any-register", "GPR-only", "FPR-only"}[c] }

// Access is what an op does with its A operand.
type Access uint8

const (
	NoAccess Access = iota
	Read
	Write
	ReadWrite
)

// Reads reports whether the op reads A before any write.
func (a Access) Reads() bool { return a == Read || a == ReadWrite }

// Writes reports whether the op writes A.
func (a Access) Writes() bool { return a == Write || a == ReadWrite }

// Implicit is the set of registers besides A an op writes that an injection
// after it may corrupt.
type Implicit uint8

const (
	OutFlags Implicit = 1 << iota
	OutSP
)

// OpInfo is one opcode's contract, and its only statement: the MIR verifier,
// the spill rewriter and liveness, the decoder's validation and the
// injectors' population all read it.
type OpInfo struct {
	Name   string
	Cycles int64 // the deterministic latency of the Figure 5 speed model
	Cond   bool  // takes a condition code
	Pseudo bool  // exists only in MIR before register allocation
	// A and B are the forms each operand admits in MIR, AReg and BReg the
	// class a register operand of each must name. The VM decodes at most
	// one memory operand per instruction.
	A, B       Forms
	AReg, BReg RegClass
	AAccess    Access
	Implicit   Implicit
	// Class is the -fi-instrs class of an op whose class is fixed (stack
	// management, control flow); a ClassArith row is classed by its
	// operands (Shape.Class).
	Class Class
	// Addr marks an op whose memory operand is an address it computes, not
	// an access (LEAQ): it is never ClassMem.
	Addr bool
}

// Operand-form shorthands for the table.
const (
	fN = Forms(1 << FormNone)
	fR = Forms(1 << FormReg)
	fI = Forms(1 << FormImm)
	fF = Forms(1 << FormFImm)
	fM = Forms(1 << FormMem)
	fS = Forms(1 << FormSym)
	fL = Forms(1 << FormLabel)
)

// Ops is the opcode table, one row per op. Two-address integer ops take a
// register or memory destination and set ZF/SF; FP ops take a register
// destination and set no flags, like SSE scalar ops.
var Ops = [NumOps]OpInfo{
	NOP: {Name: "nop", Cycles: 1, A: fN, B: fN, Class: ClassCtl},

	MOVQ:    {Name: "movq", Cycles: 1, A: fR | fM, B: fR | fI | fM, AReg: AnyReg, BReg: AnyReg, AAccess: Write},
	MOVSD:   {Name: "movsd", Cycles: 1, A: fR | fM, B: fR | fF | fM, AReg: FPROnly, BReg: FPROnly, AAccess: Write},
	LEAQ:    {Name: "leaq", Cycles: 1, A: fR, B: fM | fS, AReg: GPROnly, AAccess: Write, Addr: true},
	MOVQ2SD: {Name: "movq2sd", Cycles: 1, A: fR, B: fR, AReg: FPROnly, BReg: GPROnly, AAccess: Write},
	MOVSD2Q: {Name: "movsd2q", Cycles: 1, A: fR, B: fR, AReg: GPROnly, BReg: FPROnly, AAccess: Write},

	ADDQ:  {Name: "addq", Cycles: 1, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	SUBQ:  {Name: "subq", Cycles: 1, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	IMULQ: {Name: "imulq", Cycles: 3, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	IDIVQ: {Name: "idivq", Cycles: 24, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	IREMQ: {Name: "iremq", Cycles: 24, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	ANDQ:  {Name: "andq", Cycles: 1, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	ORQ:   {Name: "orq", Cycles: 1, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	XORQ:  {Name: "xorq", Cycles: 1, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	SHLQ:  {Name: "shlq", Cycles: 1, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	SHRQ:  {Name: "shrq", Cycles: 1, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	SARQ:  {Name: "sarq", Cycles: 1, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	NEGQ:  {Name: "negq", Cycles: 1, A: fR, B: fN, AReg: GPROnly, AAccess: ReadWrite, Implicit: OutFlags},
	NOTQ:  {Name: "notq", Cycles: 1, A: fR, B: fN, AReg: GPROnly, AAccess: ReadWrite},

	ADDSD:  {Name: "addsd", Cycles: 3, A: fR, B: fR | fF | fM, AReg: FPROnly, BReg: FPROnly, AAccess: ReadWrite},
	SUBSD:  {Name: "subsd", Cycles: 3, A: fR, B: fR | fF | fM, AReg: FPROnly, BReg: FPROnly, AAccess: ReadWrite},
	MULSD:  {Name: "mulsd", Cycles: 4, A: fR, B: fR | fF | fM, AReg: FPROnly, BReg: FPROnly, AAccess: ReadWrite},
	DIVSD:  {Name: "divsd", Cycles: 14, A: fR, B: fR | fF | fM, AReg: FPROnly, BReg: FPROnly, AAccess: ReadWrite},
	SQRTSD: {Name: "sqrtsd", Cycles: 16, A: fR, B: fR | fM, AReg: FPROnly, BReg: FPROnly, AAccess: Write},
	MINSD:  {Name: "minsd", Cycles: 3, A: fR, B: fR | fF | fM, AReg: FPROnly, BReg: FPROnly, AAccess: ReadWrite},
	MAXSD:  {Name: "maxsd", Cycles: 3, A: fR, B: fR | fF | fM, AReg: FPROnly, BReg: FPROnly, AAccess: ReadWrite},
	ANDPD:  {Name: "andpd", Cycles: 1, A: fR, B: fR | fF | fM, AReg: FPROnly, BReg: FPROnly, AAccess: ReadWrite},
	XORPD:  {Name: "xorpd", Cycles: 1, A: fR, B: fR | fF, AReg: FPROnly, BReg: FPROnly, AAccess: ReadWrite},

	CVTSI2SD:  {Name: "cvtsi2sd", Cycles: 3, A: fR, B: fR | fI | fM, AReg: FPROnly, BReg: GPROnly, AAccess: Write},
	CVTTSD2SI: {Name: "cvttsd2si", Cycles: 3, A: fR, B: fR | fM, AReg: GPROnly, BReg: FPROnly, AAccess: Write},

	CMPQ:    {Name: "cmpq", Cycles: 1, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: Read, Implicit: OutFlags},
	TESTQ:   {Name: "testq", Cycles: 1, A: fR | fM, B: fR | fI | fM, AReg: GPROnly, BReg: GPROnly, AAccess: Read, Implicit: OutFlags},
	UCOMISD: {Name: "ucomisd", Cycles: 3, A: fR, B: fR | fF | fM, AReg: FPROnly, BReg: FPROnly, AAccess: Read, Implicit: OutFlags},
	SETCC:   {Name: "setcc", Cycles: 1, Cond: true, A: fR, B: fN, AReg: GPROnly, AAccess: Write},

	JMP: {Name: "jmp", Cycles: 1, A: fL, B: fN, Class: ClassCtl},
	JCC: {Name: "jcc", Cycles: 1, Cond: true, A: fL, B: fN, Class: ClassCtl},
	// A call and a return write SP, but no tool can instrument them after
	// execution (PIN forbids IPOINT_AFTER on control transfers; REFINE's
	// spliced blocks would be unreachable after a RET): no outputs.
	CALLQ: {Name: "callq", Cycles: 2, A: fS, B: fN, Class: ClassStack},
	RET:   {Name: "ret", Cycles: 2, A: fN, B: fN, Class: ClassStack},

	PUSHQ: {Name: "pushq", Cycles: 2, A: fR | fI | fM, B: fN, AReg: AnyReg, AAccess: Read, Implicit: OutSP, Class: ClassStack},
	POPQ:  {Name: "popq", Cycles: 2, A: fR, B: fN, AReg: AnyReg, AAccess: Write, Implicit: OutSP, Class: ClassStack},
	PUSHF: {Name: "pushf", Cycles: 2, A: fN, B: fN, Implicit: OutSP, Class: ClassStack},
	POPF:  {Name: "popf", Cycles: 2, A: fN, B: fN, Implicit: OutFlags | OutSP, Class: ClassStack},

	HALT: {Name: "halt", Cycles: 1, A: fN, B: fN, Class: ClassCtl},

	VCALL:  {Name: "vcall", Cycles: 1, Pseudo: true, A: fS, B: fN},
	VENTRY: {Name: "ventry", Cycles: 1, Pseudo: true, A: fN, B: fN},
}

// invalid is the row of a byte that names no op, which traps as an illegal
// instruction: no operands, no outputs, the default cost.
var invalid = OpInfo{Cycles: 1, Class: ClassCtl}

// Info returns the op's row.
func (o Op) Info() *OpInfo {
	if o < NumOps {
		return &Ops[o]
	}
	return &invalid
}

func (o Op) String() string {
	if o < NumOps {
		return Ops[o].Name
	}
	return fmt.Sprintf("op?%d", int(o))
}

// CycleCost is the deterministic latency model used for the Figure 5 speed
// experiment. Values are in abstract cycles; only ratios matter.
func (o Op) CycleCost() int64 { return o.Info().Cycles }

// Shape is what the table needs of one instruction to derive its
// fault-injection metadata. MIR instructions and decoded ones derive their
// outputs and class through it, so the compiler and the decoder cannot
// disagree about who is a target.
type Shape struct {
	Op   Op
	A, B Form
	AReg Reg // A's register when A is one
}

// Outputs returns, in buf, the registers an injection right after the
// instruction may corrupt — the operand set REFINE and PINFI share (paper
// §4.2.4) — in the order a draw indexes them: A when the op writes a
// register A, then FLAGS, then SP. An instruction without outputs (a store,
// a branch, a call) is no injection target.
func (s Shape) Outputs(buf *[3]Reg) []Reg {
	info, n := s.Op.Info(), 0
	if s.A == FormReg && info.AAccess.Writes() {
		buf[n], n = s.AReg, n+1
	}
	if info.Implicit&OutFlags != 0 {
		buf[n], n = RFLAGS, n+1
	}
	if info.Implicit&OutSP != 0 {
		buf[n], n = SP, n+1
	}
	return buf[:n]
}

// Class returns the instruction's -fi-instrs class: the op's, when fixed;
// otherwise ClassStack for an SP or BP destination (frame setup), ClassMem
// for a memory access, and ClassArith for the rest.
func (s Shape) Class() Class {
	info := s.Op.Info()
	switch {
	case info.Class != ClassArith:
		return info.Class
	case s.A == FormReg && (s.AReg == SP || s.AReg == BP):
		return ClassStack
	case !info.Addr && (s.A == FormMem || s.B == FormMem):
		return ClassMem
	}
	return ClassArith
}
