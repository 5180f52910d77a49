// Package vx defines the VX64 virtual target architecture: an x64-flavoured
// 64-bit register machine used as the code-generation target of the compiler
// backend and as the execution substrate of the fault-injection experiments.
//
// VX64 mirrors the aspects of x64 that matter for the REFINE reproduction:
//
//   - 16 general-purpose 64-bit registers including a stack pointer and a
//     frame (base) pointer, split into caller- and callee-saved sets by the
//     ABI;
//   - 16 floating-point registers (64-bit scalar doubles, standing in for
//     the low lanes of XMM registers);
//   - a FLAGS register that integer arithmetic and comparisons write as an
//     implicit second output (the paper's example of an instruction with
//     multiple output registers, §4.2.4);
//   - two-address integer/FP arithmetic (dst = dst op src), PUSH/POP stack
//     management, function prologue/epilogue sequences, and direct calls.
package vx

import "fmt"

// Reg identifies an architectural register. General-purpose registers are
// R0..R15 (R14 = BP, R15 = SP), floating-point registers are F0..F15, and
// RFLAGS is the flags register.
type Reg uint8

// General-purpose registers.
const (
	R0  Reg = iota // return value (RAX role)
	R1             // argument 1 (RDI role)
	R2             // argument 2 (RSI role)
	R3             // argument 3 (RDX role)
	R4             // argument 4 (RCX role)
	R5             // argument 5 (R8 role)
	R6             // argument 6 (R9 role)
	R7             // caller-saved scratch (reserved for spill/expansion code)
	R8             // caller-saved scratch
	R9             // callee-saved
	R10            // callee-saved
	R11            // callee-saved
	R12            // callee-saved
	R13            // callee-saved
	BP             // frame pointer (callee-saved)
	SP             // stack pointer
)

// Floating-point registers. F0..F7 are caller-saved (F0 is also the FP return
// and first FP argument register); F8..F15 are callee-saved.
const (
	F0 Reg = 16 + iota
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
)

// RFLAGS is the flags register, written implicitly by integer arithmetic and
// by comparisons.
const RFLAGS Reg = 32

// NumRegs is the size of the architectural register file array used by the VM
// (GPRs and FPRs and FLAGS all live in one indexable file).
const NumRegs = 33

// NoReg marks an absent register operand.
const NoReg Reg = 0xFF

// IsGPR reports whether r is a general-purpose register.
func (r Reg) IsGPR() bool { return r < 16 }

// IsFPR reports whether r is a floating-point register.
func (r Reg) IsFPR() bool { return r >= F0 && r <= F15 }

// IsFlags reports whether r is the FLAGS register.
func (r Reg) IsFlags() bool { return r == RFLAGS }

var gprNames = [16]string{
	"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
	"r8", "r9", "r10", "r11", "r12", "r13", "bp", "sp",
}

func (r Reg) String() string {
	switch {
	case r.IsGPR():
		return gprNames[r]
	case r.IsFPR():
		return fmt.Sprintf("f%d", int(r-F0))
	case r.IsFlags():
		return "flags"
	case r == NoReg:
		return "noreg"
	default:
		return fmt.Sprintf("reg?%d", int(r))
	}
}

// ABI register conventions.
var (
	// IntArgRegs receive the first integer/pointer arguments.
	IntArgRegs = []Reg{R1, R2, R3, R4, R5, R6}
	// FPArgRegs receive the first floating-point arguments.
	FPArgRegs = []Reg{F0, F1, F2, F3, F4, F5, F6, F7}
	// IntRet and FPRet hold return values.
	IntRet = R0
	FPRet  = F0
	// CallerSavedGPR are clobbered by calls (including host calls).
	CallerSavedGPR = []Reg{R0, R1, R2, R3, R4, R5, R6, R7, R8}
	// CalleeSavedGPR must be preserved by callees.
	CalleeSavedGPR = []Reg{R9, R10, R11, R12, R13}
	// CallerSavedFPR are clobbered by calls.
	CallerSavedFPR = []Reg{F0, F1, F2, F3, F4, F5, F6, F7}
	// CalleeSavedFPR must be preserved by callees.
	CalleeSavedFPR = []Reg{F8, F9, F10, F11, F12, F13, F14, F15}
)

// Flags register bit assignments. Integer ops set ZF/SF; CMPQ additionally
// sets CF (unsigned below); UCOMISD sets ZF/CF/PF with the x64 unordered
// convention (NaN ⇒ ZF=CF=PF=1).
const (
	FlagZ uint64 = 1 << 0 // zero / equal
	FlagS uint64 = 1 << 1 // sign (negative)
	FlagC uint64 = 1 << 2 // carry / unsigned below
	FlagP uint64 = 1 << 3 // parity, used as "unordered" marker for FP compares
)

// FlagsBits is the number of meaningful bits in the FLAGS register for fault
// injection purposes (a flip outside these bits is architecturally ignored,
// which would make the fault trivially benign; real x64 FLAGS also has many
// reserved bits, but tools inject into the defined ones).
const FlagsBits = 4

// Cond is a branch/set condition code evaluated against FLAGS.
type Cond uint8

const (
	CondE   Cond = iota // ZF
	CondNE              // !ZF
	CondL               // SF            (signed less, from CMPQ's ZF/SF encoding)
	CondLE              // SF || ZF
	CondG               // !(SF || ZF)
	CondGE              // !SF
	CondB               // CF            (unsigned below / FP ordered-less via operand swap)
	CondBE              // CF || ZF
	CondA               // !(CF || ZF)
	CondAE              // !CF
	CondP               // PF (unordered)
	CondNP              // !PF
	CondEO              // ZF && !PF (FP ordered-equal; fused x64 sete+setnp idiom)
	CondNEU             // !ZF || PF (FP unordered-not-equal)
	CondONE             // !ZF && !PF (FP ordered-not-equal; fused setne+setnp idiom)
	NumConds
)

var condNames = [NumConds]string{
	"e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "p", "np", "eo", "neu", "one",
}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond?%d", int(c))
}

// Eval reports whether the condition holds for the given FLAGS value.
func (c Cond) Eval(flags uint64) bool {
	z := flags&FlagZ != 0
	s := flags&FlagS != 0
	cf := flags&FlagC != 0
	p := flags&FlagP != 0
	switch c {
	case CondE:
		return z
	case CondNE:
		return !z
	case CondL:
		return s
	case CondLE:
		return s || z
	case CondG:
		return !(s || z)
	case CondGE:
		return !s
	case CondB:
		return cf
	case CondBE:
		return cf || z
	case CondA:
		return !(cf || z)
	case CondAE:
		return !cf
	case CondP:
		return p
	case CondNP:
		return !p
	case CondEO:
		return z && !p
	case CondNEU:
		return !z || p
	case CondONE:
		return !z && !p
	}
	return false
}

// Op is a VX64 opcode.
type Op uint8

const (
	NOP Op = iota

	// Data movement.
	MOVQ    // movq dst, src — GPR/imm/mem in any dst/src combination (one mem max)
	MOVSD   // movsd fdst, fsrc — FPR/mem move (64-bit float bits)
	LEAQ    // leaq dst, mem — address computation, no flags
	MOVQ2SD // movq2sd f, r — bitcast GPR→FPR
	MOVSD2Q // movsd2q r, f — bitcast FPR→GPR

	// Integer arithmetic (two-address, dst = dst op src; set ZF/SF).
	ADDQ
	SUBQ
	IMULQ
	IDIVQ // dst = dst / src (signed); traps on zero or INT64_MIN/-1
	IREMQ // dst = dst % src (signed); traps on zero
	ANDQ
	ORQ
	XORQ
	SHLQ
	SHRQ
	SARQ
	NEGQ // unary: dst = -dst
	NOTQ // unary: dst = ^dst (no flags, like x64 NOT)

	// FP arithmetic (two-address; no flags, like SSE scalar ops).
	ADDSD
	SUBSD
	MULSD
	DIVSD
	SQRTSD // fdst = sqrt(fsrc)
	MINSD
	MAXSD
	ANDPD // bitwise on FP regs (used for fabs masks)
	XORPD // bitwise on FP regs (zeroing, sign flip, fault flips)

	// Conversions.
	CVTSI2SD  // f = double(int r)
	CVTTSD2SI // r = int(trunc double f)

	// Compares and conditional materialization.
	CMPQ    // set flags from a-b (ZF/SF/CF)
	TESTQ   // set flags from a&b (ZF/SF)
	UCOMISD // FP compare with unordered semantics (ZF/CF/PF)
	SETCC   // dst = cond ? 1 : 0 (reads FLAGS)

	// Control flow.
	JMP
	JCC
	CALLQ // direct call to function symbol (may be a host function)
	RET

	// Stack management.
	PUSHQ
	POPQ
	PUSHF
	POPF

	// Termination.
	HALT // stop with exit code in R0

	// Backend pseudo-instructions. These exist only in MIR between
	// instruction selection and register allocation; the assembler rejects
	// them. VCALL carries virtual-register call arguments and result; VENTRY
	// defines the parameter virtual registers from the ABI argument
	// registers. Both expand to real moves once assignments are known.
	VCALL
	VENTRY

	NumOps
)

var opNames = [NumOps]string{
	"nop",
	"movq", "movsd", "leaq", "movq2sd", "movsd2q",
	"addq", "subq", "imulq", "idivq", "iremq", "andq", "orq", "xorq",
	"shlq", "shrq", "sarq", "negq", "notq",
	"addsd", "subsd", "mulsd", "divsd", "sqrtsd", "minsd", "maxsd", "andpd", "xorpd",
	"cvtsi2sd", "cvttsd2si",
	"cmpq", "testq", "ucomisd", "setcc",
	"jmp", "jcc", "callq", "ret",
	"pushq", "popq", "pushf", "popf",
	"halt",
	"vcall", "ventry",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", int(o))
}

// Class categorizes instructions for the -fi-instrs filter (paper Table 2).
type Class uint8

const (
	// ClassArith covers register-destination computation: integer and FP
	// arithmetic, logic, shifts, compares, converts, moves and LEA.
	ClassArith Class = iota
	// ClassMem covers instructions with an explicit memory operand (loads and
	// stores) outside the stack-management set.
	ClassMem
	// ClassStack covers stack management: PUSH/POP/PUSHF/POPF/CALL/RET and any
	// instruction whose destination is SP or BP (frame setup).
	ClassStack
	// ClassCtl covers pure control flow (JMP/JCC) and HALT/NOP — these have no
	// output register and are never fault-injection targets.
	ClassCtl
)

func (c Class) String() string {
	switch c {
	case ClassArith:
		return "arithm"
	case ClassMem:
		return "mem"
	case ClassStack:
		return "stack"
	default:
		return "ctl"
	}
}

// SetsFlags reports whether the opcode writes FLAGS as an implicit output.
// Mirrors x64: integer ALU ops and compares set flags; moves, LEA, FP
// arithmetic, and NOT do not.
func (o Op) SetsFlags() bool {
	switch o {
	case ADDQ, SUBQ, IMULQ, IDIVQ, IREMQ, ANDQ, ORQ, XORQ,
		SHLQ, SHRQ, SARQ, NEGQ, CMPQ, TESTQ, UCOMISD:
		return true
	}
	return false
}

// CycleCost is the deterministic latency model used for the Figure 5 speed
// experiment. Values are in abstract cycles; only ratios matter.
func (o Op) CycleCost() int64 {
	switch o {
	case IMULQ:
		return 3
	case IDIVQ, IREMQ:
		return 24
	case DIVSD:
		return 14
	case SQRTSD:
		return 16
	case MULSD:
		return 4
	case ADDSD, SUBSD, MINSD, MAXSD, CVTSI2SD, CVTTSD2SI, UCOMISD:
		return 3
	case CALLQ, RET:
		return 2
	case PUSHQ, POPQ, PUSHF, POPF:
		return 2
	default:
		return 1
	}
}

// MemExtraCycles is the additional cost of touching memory (applied once per
// memory operand by the VM).
const MemExtraCycles = 3

// HostCallCycles is the default modeled cost of transferring into native
// library code. It models a small hand-written stub (REFINE's selInstr is a
// counter increment behind an assembly trampoline; the out_* routines buffer
// one value). Heavier native routines override HostFn.Cycles — notably
// LLFI's injectFault, see internal/llfi.
const HostCallCycles = 12
