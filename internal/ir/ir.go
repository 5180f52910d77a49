// Package ir implements the compiler's SSA intermediate representation: a
// typed, language-independent program form modeled on the LLVM IR subset the
// paper's tools operate on. Programs are modules of functions made of basic
// blocks holding instructions in SSA form (every value has a single defining
// instruction; control-flow merges use phi nodes). The package provides a
// builder for front ends (the workload kernels construct their programs with
// it), a verifier, a printer, and a reference interpreter used for
// differential testing against compiled execution.
package ir

import "fmt"

// Type is a first-class IR type. All values are 64-bit at machine level
// except I1, which widens to a full register on lowering (as on x64).
type Type uint8

const (
	Void Type = iota
	I1
	I64
	F64
	Ptr
)

func (t Type) String() string {
	switch t {
	case Void:
		return "void"
	case I1:
		return "i1"
	case I64:
		return "i64"
	case F64:
		return "f64"
	case Ptr:
		return "ptr"
	}
	return "?"
}

// IsInt reports whether the type lowers to an integer register.
func (t Type) IsInt() bool { return t == I1 || t == I64 || t == Ptr }

// Op enumerates IR operations.
type Op uint8

const (
	OpInvalid Op = iota

	// Leaf values.
	OpConstI // AuxInt (type I64 or I1)
	OpConstF // AuxF
	OpParam  // AuxInt = parameter index
	OpGlobal // Aux = global name; type Ptr

	// Integer arithmetic.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpAShr

	// Floating point.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFSqrt
	OpFAbs
	OpFNeg
	OpFMin
	OpFMax

	// Conversions.
	OpSIToFP
	OpFPToSI

	// Comparisons (result I1). Pred holds the predicate.
	OpICmp
	OpFCmp

	// Memory.
	OpAlloca // AuxInt = size in bytes; entry block only; type Ptr
	OpLoad   // args[0] = ptr; Type = loaded type
	OpStore  // args[0] = value, args[1] = ptr
	OpGEP    // args[0] = ptr, args[1] = index; ptr + index*Scale + Off

	// Other.
	OpSelect // args = cond, a, b
	OpCall   // Aux = callee name; args = call arguments
	OpPhi    // args parallel to Block.Preds

	// Terminators.
	OpBr     // unconditional; Block.Succs[0]
	OpCondBr // args[0] = cond; Succs[0] = then, Succs[1] = else
	OpRet    // optional args[0]

	NumOps
)

var opNames = [NumOps]string{
	"invalid", "consti", "constf", "param", "global",
	"add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "ashr",
	"fadd", "fsub", "fmul", "fdiv", "fsqrt", "fabs", "fneg", "fmin", "fmax",
	"sitofp", "fptosi",
	"icmp", "fcmp",
	"alloca", "load", "store", "gep",
	"select", "call", "phi",
	"br", "condbr", "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", int(o))
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpCondBr || o == OpRet }

// HasResult reports whether the op produces an SSA value usable by others.
// This set defines LLFI's instrumentation population: IR-level injectors
// corrupt the results of value-producing instructions.
func (o Op) HasResult(t Type) bool {
	switch o {
	case OpStore, OpBr, OpCondBr, OpRet, OpInvalid:
		return false
	case OpCall:
		return t != Void
	}
	return true
}

// Pred is a comparison predicate for OpICmp / OpFCmp.
type Pred uint8

const (
	// Integer predicates (signed except EQ/NE).
	EQ Pred = iota
	NE
	SLT
	SLE
	SGT
	SGE
	ULT
	ULE
	UGT
	UGE
	// Floating-point ordered predicates (false on NaN).
	OEQ
	ONE
	OLT
	OLE
	OGT
	OGE
)

var predNames = []string{
	"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge",
	"oeq", "one", "olt", "ole", "ogt", "oge",
}

func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("pred?%d", int(p))
}

// Value is an SSA value: an instruction and its result. Leaf values
// (constants, parameters, global addresses) are materialized as ordinary
// values in the defining function.
type Value struct {
	ID     int
	Op     Op
	Type   Type
	Args   []*Value
	AuxInt int64
	AuxF   float64
	Aux    string // callee or global name
	Pred   Pred
	// GEP addressing: ptr + index*Scale + Off.
	Scale int64
	Off   int64
	Block *Block

	// uses counts consumers (maintained lazily by passes that need it).
	uses int
}

// Name returns the printable SSA name.
func (v *Value) Name() string { return fmt.Sprintf("%%%d", v.ID) }

// Block is a basic block: an ordered list of values, the last of which is a
// terminator once construction finishes.
type Block struct {
	ID     int
	Fn     *Func
	Values []*Value
	Preds  []*Block
	Succs  []*Block
}

// Term returns the block terminator, or nil while under construction.
func (b *Block) Term() *Value {
	if len(b.Values) == 0 {
		return nil
	}
	v := b.Values[len(b.Values)-1]
	if !v.Op.IsTerminator() {
		return nil
	}
	return v
}

// Name returns the printable block label.
func (b *Block) Name() string { return fmt.Sprintf("b%d", b.ID) }

// predIndex returns the index of p in b.Preds.
func (b *Block) predIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// Func is an IR function.
type Func struct {
	Name    string
	Params  []*Value // OpParam values, also reachable as leaves
	RetType Type
	Blocks  []*Block
	Mod     *Module

	nextValueID int
	nextBlockID int
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a fresh empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBlockID, Fn: f}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NumValues returns an upper bound on value IDs (for dense side tables).
func (f *Func) NumValues() int { return f.nextValueID }

// newValue allocates a value with a fresh ID.
func (f *Func) newValue(op Op, t Type, args ...*Value) *Value {
	v := &Value{ID: f.nextValueID, Op: op, Type: t, Args: args}
	f.nextValueID++
	return v
}

// Global is a module-level data object.
type Global struct {
	Name  string
	Size  int64
	Init  []byte // little-endian initial bytes; nil ⇒ zero
	Align int64
}

// HostDecl declares an external (native library) function.
type HostDecl struct {
	Name   string
	Params []Type
	Ret    Type
}

// Module is a whole IR program.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []Global
	Hosts   []HostDecl
}

// NewModule creates an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Host returns the host declaration with the given name, or nil.
func (m *Module) Host(name string) *HostDecl {
	for i := range m.Hosts {
		if m.Hosts[i].Name == name {
			return &m.Hosts[i]
		}
	}
	return nil
}

// Global returns the named global, or nil.
func (m *Module) Global(name string) *Global {
	for i := range m.Globals {
		if m.Globals[i].Name == name {
			return &m.Globals[i]
		}
	}
	return nil
}

// AddGlobal registers a global and returns its name for OpGlobal references.
func (m *Module) AddGlobal(g Global) string {
	m.Globals = append(m.Globals, g)
	return g.Name
}

// DeclareHost registers a host function signature. Repeated identical
// declarations are allowed.
func (m *Module) DeclareHost(d HostDecl) {
	if h := m.Host(d.Name); h != nil {
		return
	}
	m.Hosts = append(m.Hosts, d)
}

// ReplaceUses rewrites every use of old with new across the function, except
// uses inside skip (typically the instruction that defines new from old).
func (f *Func) ReplaceUses(old, new *Value, skip *Value) {
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if v == skip {
				continue
			}
			for i, a := range v.Args {
				if a == old {
					v.Args[i] = new
				}
			}
		}
	}
}

// RemoveValue deletes v from its block (v must be present and unused).
func (b *Block) RemoveValue(v *Value) {
	for i, w := range b.Values {
		if w == v {
			b.Values = append(b.Values[:i], b.Values[i+1:]...)
			return
		}
	}
}

// NewValueAt creates a value and inserts it at position pos in block b,
// bypassing the builder's terminator check. Passes use it to materialize
// values into already-terminated blocks.
func (f *Func) NewValueAt(b *Block, pos int, op Op, t Type, args ...*Value) *Value {
	v := f.newValue(op, t, args...)
	v.Block = b
	b.Values = append(b.Values, nil)
	copy(b.Values[pos+1:], b.Values[pos:])
	b.Values[pos] = v
	return v
}
