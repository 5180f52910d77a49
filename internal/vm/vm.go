// Package vm implements the VX64 virtual machine: a deterministic emulator
// for the executable images produced by the assembler. It models the
// architectural state that matters for realistic fault injection — a flat
// guarded address space, a downward-growing stack, a FLAGS register, traps
// (segfault, divide error, wild control flow), an instruction budget for
// timeout detection, a deterministic cycle model for the speed experiments,
// a ring-buffer trace, and a one-shot fire point that binary-level injectors
// schedule their faults with. The PIN-style cost model of the PINFI
// comparator lives in package pinfi, not here.
package vm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/vx"
)

// OpndKind describes the decoded shape of an instruction operand.
type OpndKind uint8

const (
	OpNone OpndKind = iota
	OpReg
	OpImm  // integer immediate in Inst.Imm
	OpFImm // float immediate, bits in Inst.Imm
	OpMem  // memory operand described by MemBase/MemIndex/MemScale/MemDisp
)

// Inst is one decoded VX64 instruction, flattened for fast dispatch.
// A is the destination (and first source for two-address ops); B the source.
type Inst struct {
	Op   vx.Op
	Cond vx.Cond

	AKind, BKind OpndKind
	AReg, BReg   vx.Reg
	Imm          int64 // immediate for whichever operand is Imm/FImm

	// One memory operand max: address = [MemBase] + [MemIndex]*MemScale + MemDisp.
	// MemBase/MemIndex == NoReg means absent (MemDisp then holds an absolute
	// address, e.g. a global).
	MemBase, MemIndex vx.Reg
	MemScale          int32
	MemDisp           int64

	// Target is the branch destination or callee entry PC. HostIdx >= 0 marks
	// a call to a host (native library) function instead.
	Target  int32
	HostIdx int32

	// Fault-injection metadata, precomputed by the assembler.
	Class        vx.Class
	NOut         uint8
	Outs         [3]vx.Reg
	SiteID       int32
	FnIdx        int32
	Instrumented bool

	NIntArgs, NFPArgs uint8
}

// FuncInfo records a function's location in the flat instruction stream.
type FuncInfo struct {
	Name     string
	Entry    int32 // first pc
	End      int32 // one past last pc
	IsTarget bool  // matched by the -fi-funcs filter at instrumentation time
}

// Image is a loaded executable: the decoded instruction stream plus the data
// segment layout.
type Image struct {
	Instrs  []Inst
	Funcs   []FuncInfo
	EntryPC int32

	// HostFns are the external symbols the program links against, in HostIdx
	// order. The machine binds them via BindHost before Run.
	HostFns []string

	// Data segment: initialized bytes are copied to GlobalBase at reset;
	// GlobalEnd is the first address past the data segment.
	InitData   []byte
	GlobalBase int64
	GlobalEnd  int64
	MemSize    int64

	// GlobalAddrs maps global names to their placed addresses (for host
	// libraries that need well-known scratch slots).
	GlobalAddrs map[string]int64

	// NumSites is the number of static FI sites assigned by instrumentation.
	NumSites int32

	// Execution-engine state, built once per image on first use (see
	// predecode.go): the predecoded instruction stream, the host-symbol
	// index, and the entry-sorted function index for FuncOf. Deliberately
	// unexported and absent from the wire: gob drops these, and ensure()
	// rebuilds them deterministically from the exported fields on the far
	// side (the disk cache round-trips Image through gob).
	once      predecodeOnce    //fi:nowire — derived predecode state, rebuilt by ensure()
	code      []uop            //fi:nowire — derived predecode state, rebuilt by ensure()
	hostIndex map[string]int32 //fi:nowire — derived predecode state, rebuilt by ensure()
	funcOrder []int32          //fi:nowire — indexes into Funcs sorted by Entry, rebuilt by ensure()
	sites     []siteInfo       //fi:nowire — site superinstruction side table (site.go), rebuilt by ensure()
	sitePC    []int32          //fi:nowire — SiteID → PC index for SitePC, rebuilt by ensure()
}

// Imports reports whether the image links against the named host function.
func (img *Image) Imports(name string) bool {
	img.ensure()
	_, ok := img.hostIndex[name]
	return ok
}

// FuncOf returns the function containing pc, or nil.
func (img *Image) FuncOf(pc int32) *FuncInfo {
	img.ensure()
	// Binary search over function entries: find the last function whose
	// Entry is <= pc, then confirm pc falls inside it.
	lo, hi := 0, len(img.funcOrder)
	for lo < hi {
		mid := (lo + hi) / 2
		if img.Funcs[img.funcOrder[mid]].Entry <= pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	f := &img.Funcs[img.funcOrder[lo-1]]
	if pc >= f.Entry && pc < f.End {
		return f
	}
	return nil
}

// SitePC returns the PC of the application instruction carrying SiteID id —
// the first instruction in stream order that is not instrumentation. The
// index is built once at predecode. id 0 is the untagged population and
// resolves to the first untagged application instruction, which is what a
// scan for a garbage site id of 0 always found.
func (img *Image) SitePC(id int32) (int32, bool) {
	img.ensure()
	if id < 0 || int(id) >= len(img.sitePC) || img.sitePC[id] < 0 {
		return 0, false
	}
	return img.sitePC[id], true
}

// GlobalBase is the default load address of the data segment. Addresses below
// it form a guard page so that near-null dereferences trap, as on a real OS.
const DefaultGlobalBase = 0x1000

// DefaultMemSize is the default size of the flat address space. It is kept
// deliberately modest so that single-bit corruption of an address or the
// stack pointer frequently leaves the mapped range — the dominant crash
// mechanism for pointer faults on real hardware.
const DefaultMemSize = 1 << 22 // 4 MiB

// TrapKind enumerates abnormal terminations.
type TrapKind uint8

const (
	TrapNone    TrapKind = iota
	TrapSegv             // memory access outside the mapped range
	TrapDivide           // integer divide by zero or INT64_MIN / -1
	TrapBadPC            // control transfer outside the instruction stream
	TrapTimeout          // instruction budget exhausted
	TrapIllegal          // malformed instruction (assembler bug guard)
)

func (t TrapKind) String() string {
	switch t {
	case TrapNone:
		return "none"
	case TrapSegv:
		return "segv"
	case TrapDivide:
		return "divide"
	case TrapBadPC:
		return "badpc"
	case TrapTimeout:
		return "timeout"
	case TrapIllegal:
		return "illegal"
	}
	return "?"
}

// HostFn is a native library function callable from VX64 code via CALLQ.
// Implementations read arguments from and write results to the machine's
// registers according to the ABI (integer args R1..R6, FP args F0..F7,
// returns in R0/F0).
type HostFn struct {
	Name string
	Fn   func(m *Machine)
	// PreserveRegs marks hand-written assembly-stub semantics: the function
	// clobbers only R0. Normal (C ABI) host functions clobber all
	// caller-saved registers, which the machine models by scrambling them.
	PreserveRegs bool
	// Cycles overrides the modeled cost (0 ⇒ vx.HostCallCycles, resolved by
	// BindHost).
	Cycles int64
	// Inert declares the calls on which Fn would only count (optional).
	Inert Inert

	// siteInert is set by BindHost for the one shape of host a fused site
	// calls itself (site.go): bound, register-preserving, and declaring
	// inert calls that answer 0.
	siteInert bool
}

// Inert is a host function's declaration of its inert calls: while *Count
// differs from *Event, a call does nothing but advance *Count and return
// Regs[Ret] (0 for vx.NoReg) in R0, and the hook-free loop makes such a
// call itself instead of entering Fn — no closure, no post-call seams. The
// cycle charge and the ABI clobber are the call's as ever. Fn keeps both
// counts current: it advances *Count like an inert call and, whenever it
// runs, leaves *Event at the count of the next call that has work. Step
// calls Fn on every call, so the differential suites hold each declaration
// to the closure it summarizes.
type Inert struct {
	Count, Event *int64
	Ret          vx.Reg
}

// inert reports whether the next call of h is one its Inert declaration
// covers.
func (h *HostFn) inert() bool {
	c := h.Inert.Count
	return c != nil && *c != *h.Inert.Event
}

// callInert makes an inert call of h in place of Fn.
func (m *Machine) callInert(h *HostFn) {
	*h.Inert.Count++
	var r uint64
	if h.Inert.Ret != vx.NoReg {
		r = m.Regs[h.Inert.Ret]
	}
	m.Regs[vx.R0] = r
}

// ExecHook is the callback type of FirePoint.Fn and of the injections
// binary-level tools arm with it (pinfi.Flip and its kin). It runs
// after the instruction's architectural effects are committed, which lets a
// fault injector flip bits in the instruction's output registers — matching
// PIN-style "insert analysis call after instruction" semantics.
type ExecHook func(m *Machine, pc int32, in *Inst)

// Machine executes an Image.
type Machine struct {
	Img  *Image
	Regs [vx.NumRegs]uint64 // GPRs, FPR bit patterns, FLAGS
	Mem  []byte
	PC   int32

	Halted   bool
	ExitCode int64
	Trap     TrapKind
	TrapMsg  string

	// InstrCount counts executed instructions; Budget (if > 0) bounds it and
	// triggers TrapTimeout when exceeded. Cycles accumulates the deterministic
	// time model.
	InstrCount int64
	Budget     int64
	Cycles     int64

	// Output is the program's result stream (bit patterns of the values the
	// program emitted via the out_* host functions). Golden-run comparison for
	// SOC classification uses exactly this stream.
	Output []uint64

	// Trace is the ring-buffer trace observer (see TraceRing in trace.go),
	// which Step records into. Run reads it once, when it starts: a run
	// traced from the start executes through Step throughout.
	Trace *TraceRing

	// fire is the armed one-shot fire point (see FirePoint/ArmFire in
	// fire.go): the injection deadline the fast loop tracks alongside the
	// Budget.
	fire *FirePoint

	hosts []HostFn

	// dirty is a bitmap of memory pages (dirtyPageSize bytes each) that may
	// differ from a never-written address space: written since the last
	// Reset, or put back by the last Restore. It is the only marking state
	// there is — the store path tests and sets a page's bit, Reset and
	// Restore sweep only the marked pages instead of the whole address space
	// (so short trials stop paying O(MemSize) per run) and a Snapshot copies
	// it — so there is no per-run marking state for either to forget.
	dirty []uint64
}

// dirtyPageShift selects the dirty-tracking page size (4 KiB, like a real
// MMU page). A 4 MiB address space needs a 16-word bitmap, which stays in L1.
const dirtyPageShift = 12

const dirtyPageSize = 1 << dirtyPageShift

// New creates a machine for the image with default memory size.
func New(img *Image) *Machine {
	img.ensure()
	m := &Machine{Img: img}
	m.hosts = make([]HostFn, len(img.HostFns))
	m.Reset()
	return m
}

// Rebind points the machine at img, whose address space must be the size of
// the machine's, and gives it a fresh host table with nothing bound: no host
// function of the previous image stays callable. It leaves memory, registers
// and accounting alone — the Reset or Restore every run starts with sweeps
// what the previous image's runs dirtied — so a machine moves between images
// of one size without reallocating its address space.
func (m *Machine) Rebind(img *Image) {
	if int64(len(m.Mem)) != img.MemSize {
		panic("vm: Rebind: image of a different address space")
	}
	img.ensure()
	m.Img = img
	m.hosts = make([]HostFn, len(img.HostFns))
}

// Reset re-initializes registers, memory and accounting for a fresh run. It
// also clears the instruction Budget, detaches any TraceRing, and disarms
// any pending FirePoint, so a pooled machine cannot leak the previous
// trial's timeout, trace or injection into the next run. Only pages dirtied
// since the previous Reset or Restore (see snapshot.go) are cleared.
func (m *Machine) Reset() {
	img := m.Img
	if m.Mem == nil || int64(len(m.Mem)) != img.MemSize {
		m.Mem = make([]byte, img.MemSize)
		npages := (len(m.Mem) + dirtyPageSize - 1) >> dirtyPageShift
		m.dirty = make([]uint64, (npages+63)/64)
	} else {
		m.eachDirtyPage(func(lo, hi int) { clear(m.Mem[lo:hi]) })
		clear(m.dirty)
	}
	copy(m.Mem[img.GlobalBase:], img.InitData)
	m.markDirtyRange(uint64(img.GlobalBase), int64(len(img.InitData)))
	for i := range m.Regs {
		m.Regs[i] = 0
	}
	m.PC = img.EntryPC
	m.InstrCount = 0
	m.Cycles = 0
	m.Output = m.Output[:0]
	m.clearRun()
	// Stack: push the exit sentinel so that RET from the entry function halts.
	m.Regs[vx.SP] = uint64(img.MemSize)
	m.push(uint64(len(img.Instrs)))
}

// clearRun drops what a run leaves on the machine besides its architectural
// state, for Reset and Restore alike: how it ended, the Budget, the trace
// ring and a pending fire point.
func (m *Machine) clearRun() {
	m.Halted = false
	m.ExitCode = 0
	m.Trap = TrapNone
	m.TrapMsg = ""
	m.Budget = 0
	m.Trace = nil
	m.fire = nil
}

// markDirty records that the 8 bytes at addr were written. The caller has
// already bounds-checked addr, so both page indexes are in range. The common
// case — a page some earlier store already marked — is one load and a test
// of a bitmap word that lives in L1. The straddle test is on the page offset
// rather than a second page number so that the whole thing stays under the
// inliner's budget and store64 pays no call for it.
func (m *Machine) markDirty(addr uint64) {
	m.markPage(addr >> dirtyPageShift)
	if addr&(dirtyPageSize-1) > dirtyPageSize-8 {
		m.markPage((addr + 7) >> dirtyPageShift)
	}
}

// markPage sets page p's bit in the dirty bitmap unless it is set already.
func (m *Machine) markPage(p uint64) {
	if w, bit := &m.dirty[p>>6], uint64(1)<<(p&63); *w&bit == 0 {
		*w |= bit
	}
}

// MarkMemWritten records an n-byte direct write to Mem so the dirty-page
// Reset knows to clear it. Guest stores go through the VM and are tracked
// automatically; host functions or harness code that write Mem directly
// must call this, or the bytes survive the next Reset on a reused machine.
func (m *Machine) MarkMemWritten(addr uint64, n int64) {
	m.markDirtyRange(addr, n)
}

// markDirtyRange records an n-byte external write at addr (e.g. the
// init-data copy during Reset).
func (m *Machine) markDirtyRange(addr uint64, n int64) {
	if n <= 0 {
		return
	}
	for p := addr >> dirtyPageShift; p <= (addr+uint64(n)-1)>>dirtyPageShift; p++ {
		m.markPage(p)
	}
}

// BindHost installs the implementation for a named host function. It panics
// if the image does not import the symbol, which indicates a link error in
// the harness rather than a program-under-test failure.
func (m *Machine) BindHost(h HostFn) {
	m.Img.ensure()
	if i, ok := m.Img.hostIndex[h.Name]; ok {
		if h.Cycles == 0 {
			h.Cycles = vx.HostCallCycles
		}
		h.siteInert = h.Fn != nil && h.PreserveRegs && h.Inert.Count != nil && h.Inert.Ret == vx.NoReg
		m.hosts[i] = h
		return
	}
	panic(fmt.Sprintf("vm: image does not import host function %q", h.Name))
}

// HostBound reports whether the named host symbol has an implementation.
func (m *Machine) HostBound(name string) bool {
	m.Img.ensure()
	if i, ok := m.Img.hostIndex[name]; ok {
		return m.hosts[i].Fn != nil
	}
	return false
}

// Crashed reports whether the finished run counts as a crash under the
// paper's classification: any trap, or a non-zero exit code.
func (m *Machine) Crashed() bool {
	return m.Trap != TrapNone || m.ExitCode != 0
}

func (m *Machine) fault(k TrapKind, format string, args ...any) {
	m.Trap = k
	m.TrapMsg = fmt.Sprintf(format, args...)
	m.Halted = true
}

// memory access helpers ------------------------------------------------------

// load64 and store64 are the memory-access primitives of every execution
// path, and store64 is where a store's pages are marked dirty; the one other
// writer is the fused site (runFast's uSITE case, site.go), which spells out
// the head store and bounds-checks and marks its save area once for its five
// pushes. The bounds checks are overflow-safe:
// addr+8 could wrap for addresses near 2^64 (e.g. a bit-flipped stack
// pointer).

func (m *Machine) load64(addr uint64) (uint64, bool) {
	v, ok := m.peek64(addr)
	if !ok {
		m.loadFault(addr)
	}
	return v, ok
}

// loadFault is the trap of a load at addr.
func (m *Machine) loadFault(addr uint64) {
	m.fault(TrapSegv, "load at %#x", addr)
}

func (m *Machine) store64(addr, v uint64) bool {
	if addr < DefaultGlobalBase || addr > uint64(len(m.Mem))-8 {
		m.fault(TrapSegv, "store at %#x", addr)
		return false
	}
	m.markDirty(addr)
	binary.LittleEndian.PutUint64(m.Mem[addr:], v)
	return true
}

// peek64 and poke64 are the fast paths of load64 and store64, small enough
// for the inliner, which load64 and store64 with their fault are not: they
// do the access and report true, or do nothing and report false — for a
// load out of bounds, for a store out of bounds, onto a page not yet marked
// dirty or straddling two pages. runFast inlines them and calls out only
// for the rest (loadFault, store64).
func (m *Machine) peek64(addr uint64) (uint64, bool) {
	if addr < DefaultGlobalBase || addr > uint64(len(m.Mem))-8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(m.Mem[addr:]), true
}

func (m *Machine) poke64(addr, v uint64) bool {
	p := addr >> dirtyPageShift
	if addr < DefaultGlobalBase || addr > uint64(len(m.Mem))-8 ||
		addr&(dirtyPageSize-1) > dirtyPageSize-8 || m.dirty[p>>6]&(1<<(p&63)) == 0 {
		return false
	}
	binary.LittleEndian.PutUint64(m.Mem[addr:], v)
	return true
}

// pushFast and popFast are push and pop on peek64 and poke64: on false
// they have left SP alone, and push or pop does the access in full.
func (m *Machine) pushFast(v uint64) bool {
	sp := m.Regs[vx.SP] - 8
	if !m.poke64(sp, v) {
		return false
	}
	m.Regs[vx.SP] = sp
	return true
}

func (m *Machine) popFast() (uint64, bool) {
	sp := m.Regs[vx.SP]
	v, ok := m.peek64(sp)
	if ok {
		m.Regs[vx.SP] = sp + 8
	}
	return v, ok
}

func (m *Machine) push(v uint64) bool {
	sp := m.Regs[vx.SP] - 8
	m.Regs[vx.SP] = sp
	return m.store64(sp, v)
}

func (m *Machine) pop() (uint64, bool) {
	sp := m.Regs[vx.SP]
	v, ok := m.load64(sp)
	if !ok {
		return 0, false
	}
	m.Regs[vx.SP] = sp + 8
	return v, true
}

func (m *Machine) effAddr(in *Inst) uint64 {
	var a uint64
	if in.MemBase != vx.NoReg {
		a = m.Regs[in.MemBase]
	}
	if in.MemIndex != vx.NoReg {
		a += m.Regs[in.MemIndex] * uint64(in.MemScale)
	}
	return a + uint64(in.MemDisp)
}

// readB reads the B (source) operand value.
func (m *Machine) readB(in *Inst) (uint64, bool) {
	switch in.BKind {
	case OpReg:
		return m.Regs[in.BReg], true
	case OpImm, OpFImm:
		return uint64(in.Imm), true
	case OpMem:
		m.Cycles += vx.MemExtraCycles
		return m.load64(m.effAddr(in))
	}
	m.fault(TrapIllegal, "missing source operand for %s", in.Op)
	return 0, false
}

// readA reads the A operand as a source (for two-address read-modify-write).
func (m *Machine) readA(in *Inst) (uint64, bool) {
	switch in.AKind {
	case OpReg:
		return m.Regs[in.AReg], true
	case OpImm, OpFImm:
		return uint64(in.Imm), true
	case OpMem:
		m.Cycles += vx.MemExtraCycles
		return m.load64(m.effAddr(in))
	}
	m.fault(TrapIllegal, "missing dest operand for %s", in.Op)
	return 0, false
}

// writeA writes the A operand as a destination.
func (m *Machine) writeA(in *Inst, v uint64) bool {
	switch in.AKind {
	case OpReg:
		m.Regs[in.AReg] = v
		return true
	case OpMem:
		m.Cycles += vx.MemExtraCycles
		return m.store64(m.effAddr(in), v)
	}
	m.fault(TrapIllegal, "bad dest operand for %s", in.Op)
	return false
}

func (m *Machine) setFlagsZS(v uint64) {
	f := uint64(0)
	if v == 0 {
		f |= vx.FlagZ
	}
	if int64(v) < 0 {
		f |= vx.FlagS
	}
	m.Regs[vx.RFLAGS] = f
}

// Step executes a single instruction. It is the reference path: traced runs,
// RunStepped and stepping observers (pinfi.Observe) execute through it, and
// the predecoded loop in run.go must stay observationally identical to it.
// An attached TraceRing records the instruction unless it halted the
// machine.
func (m *Machine) Step() {
	if m.Halted {
		return
	}
	if fp := m.fire; fp != nil && m.InstrCount >= fp.At {
		// A due fire point is serviced before this instruction's sentinel,
		// bad-pc and budget checks — the same inter-instruction boundary at
		// which the fast loop services it, right behind the At-th committed
		// instruction.
		m.serviceFire()
		if m.Halted {
			return
		}
	}
	img := m.Img
	if m.PC < 0 || int(m.PC) >= len(img.Instrs) {
		if int(m.PC) == len(img.Instrs) {
			// Return through the exit sentinel: normal halt, exit code in R0.
			m.Halted = true
			m.ExitCode = int64(m.Regs[vx.R0])
			return
		}
		m.fault(TrapBadPC, "pc %d outside [0,%d)", m.PC, len(img.Instrs))
		return
	}
	if m.Budget > 0 && m.InstrCount >= m.Budget {
		m.fault(TrapTimeout, "budget %d exhausted", m.Budget)
		return
	}
	pc := m.PC
	in := &img.Instrs[pc]
	m.InstrCount++
	m.Cycles += in.Op.CycleCost()
	m.PC = pc + 1 // default fallthrough; control flow overrides below
	m.execOp(pc, in)
	if tr := m.Trace; tr != nil && !m.Halted {
		tr.record(m.InstrCount, pc, in.Op, m.Regs[vx.SP], m.Regs[vx.RFLAGS])
	}
}

// execOp applies the architectural effects of one instruction. The caller
// has already accounted for it (InstrCount, base cycle cost, fallthrough PC).
func (m *Machine) execOp(pc int32, in *Inst) {
	img := m.Img
	switch in.Op {
	case vx.NOP:

	case vx.MOVQ, vx.MOVSD:
		v, ok := m.readB(in)
		if !ok {
			return
		}
		if !m.writeA(in, v) {
			return
		}

	case vx.LEAQ:
		m.Regs[in.AReg] = m.effAddr(in)

	case vx.MOVQ2SD, vx.MOVSD2Q:
		m.Regs[in.AReg] = m.Regs[in.BReg]

	case vx.ADDQ, vx.SUBQ, vx.IMULQ, vx.ANDQ, vx.ORQ, vx.XORQ,
		vx.SHLQ, vx.SHRQ, vx.SARQ:
		a, ok := m.readA(in)
		if !ok {
			return
		}
		b, ok := m.readB(in)
		if !ok {
			return
		}
		var r uint64
		switch in.Op {
		case vx.ADDQ:
			r = a + b
		case vx.SUBQ:
			r = a - b
		case vx.IMULQ:
			r = uint64(int64(a) * int64(b))
		case vx.ANDQ:
			r = a & b
		case vx.ORQ:
			r = a | b
		case vx.XORQ:
			r = a ^ b
		case vx.SHLQ:
			r = a << (b & 63)
		case vx.SHRQ:
			r = a >> (b & 63)
		case vx.SARQ:
			r = uint64(int64(a) >> (b & 63))
		}
		if !m.writeA(in, r) {
			return
		}
		m.setFlagsZS(r)

	case vx.IDIVQ, vx.IREMQ:
		a, ok := m.readA(in)
		if !ok {
			return
		}
		b, ok := m.readB(in)
		if !ok {
			return
		}
		if b == 0 || (int64(a) == math.MinInt64 && int64(b) == -1) {
			m.fault(TrapDivide, "divide error at pc %d", pc)
			return
		}
		var r uint64
		if in.Op == vx.IDIVQ {
			r = uint64(int64(a) / int64(b))
		} else {
			r = uint64(int64(a) % int64(b))
		}
		if !m.writeA(in, r) {
			return
		}
		m.setFlagsZS(r)

	case vx.NEGQ:
		r := uint64(-int64(m.Regs[in.AReg]))
		m.Regs[in.AReg] = r
		m.setFlagsZS(r)

	case vx.NOTQ:
		m.Regs[in.AReg] = ^m.Regs[in.AReg]

	case vx.ADDSD, vx.SUBSD, vx.MULSD, vx.DIVSD, vx.MINSD, vx.MAXSD:
		bv, ok := m.readB(in)
		if !ok {
			return
		}
		a := math.Float64frombits(m.Regs[in.AReg])
		b := math.Float64frombits(bv)
		var r float64
		switch in.Op {
		case vx.ADDSD:
			r = math.Float64frombits(fadd(m.Regs[in.AReg], bv))
		case vx.SUBSD:
			r = a - b
		case vx.MULSD:
			r = math.Float64frombits(fmul(m.Regs[in.AReg], bv))
		case vx.DIVSD:
			r = a / b
		case vx.MINSD:
			// x64 semantics: unordered or equal ⇒ source operand.
			if a < b {
				r = a
			} else {
				r = b
			}
		case vx.MAXSD:
			if a > b {
				r = a
			} else {
				r = b
			}
		}
		m.Regs[in.AReg] = math.Float64bits(r)

	case vx.SQRTSD:
		bv, ok := m.readB(in)
		if !ok {
			return
		}
		m.Regs[in.AReg] = math.Float64bits(math.Sqrt(math.Float64frombits(bv)))

	case vx.ANDPD:
		bv, ok := m.readB(in)
		if !ok {
			return
		}
		m.Regs[in.AReg] &= bv

	case vx.XORPD:
		bv, ok := m.readB(in)
		if !ok {
			return
		}
		m.Regs[in.AReg] ^= bv

	case vx.CVTSI2SD:
		bv, ok := m.readB(in)
		if !ok {
			return
		}
		m.Regs[in.AReg] = math.Float64bits(float64(int64(bv)))

	case vx.CVTTSD2SI:
		bv, ok := m.readB(in)
		if !ok {
			return
		}
		f := math.Float64frombits(bv)
		var r int64
		// x64 returns the "integer indefinite" value on NaN/overflow.
		if math.IsNaN(f) || f >= math.MaxInt64 || f < math.MinInt64 {
			r = math.MinInt64
		} else {
			r = int64(f)
		}
		m.Regs[in.AReg] = uint64(r)

	case vx.CMPQ:
		a, ok := m.readA(in)
		if !ok {
			return
		}
		b, ok := m.readB(in)
		if !ok {
			return
		}
		var f uint64
		if a == b {
			f |= vx.FlagZ
		}
		if int64(a) < int64(b) {
			f |= vx.FlagS
		}
		if a < b {
			f |= vx.FlagC
		}
		m.Regs[vx.RFLAGS] = f

	case vx.TESTQ:
		a, ok := m.readA(in)
		if !ok {
			return
		}
		b, ok := m.readB(in)
		if !ok {
			return
		}
		m.setFlagsZS(a & b)

	case vx.UCOMISD:
		a := math.Float64frombits(m.Regs[in.AReg])
		bv, ok := m.readB(in)
		if !ok {
			return
		}
		b := math.Float64frombits(bv)
		var f uint64
		switch {
		case math.IsNaN(a) || math.IsNaN(b):
			f = vx.FlagZ | vx.FlagC | vx.FlagP
		case a == b:
			f = vx.FlagZ
		case a < b:
			f = vx.FlagC
		}
		m.Regs[vx.RFLAGS] = f

	case vx.SETCC:
		if in.Cond.Eval(m.Regs[vx.RFLAGS]) {
			m.Regs[in.AReg] = 1
		} else {
			m.Regs[in.AReg] = 0
		}

	case vx.JMP:
		m.PC = in.Target

	case vx.JCC:
		if in.Cond.Eval(m.Regs[vx.RFLAGS]) {
			m.PC = in.Target
		}

	case vx.CALLQ:
		if in.HostIdx >= 0 {
			h := &m.hosts[in.HostIdx]
			if h.Fn == nil {
				m.fault(TrapIllegal, "unbound host function %q", m.Img.HostFns[in.HostIdx])
				return
			}
			m.Cycles += h.Cycles
			h.Fn(m)
			if !h.PreserveRegs {
				m.scrambleExceptResults()
			}
		} else {
			if !m.push(uint64(pc + 1)) {
				return
			}
			m.PC = in.Target
		}

	case vx.RET:
		v, ok := m.pop()
		if !ok {
			return
		}
		if v > uint64(len(img.Instrs)) {
			m.fault(TrapBadPC, "ret to %#x", v)
			return
		}
		m.PC = int32(v)

	case vx.PUSHQ:
		v, ok := m.readA(in)
		if !ok {
			return
		}
		if !m.push(v) {
			return
		}

	case vx.POPQ:
		v, ok := m.pop()
		if !ok {
			return
		}
		m.Regs[in.AReg] = v

	case vx.PUSHF:
		if !m.push(m.Regs[vx.RFLAGS]) {
			return
		}

	case vx.POPF:
		v, ok := m.pop()
		if !ok {
			return
		}
		m.Regs[vx.RFLAGS] = v

	case vx.HALT:
		m.Halted = true
		m.ExitCode = int64(m.Regs[vx.R0])

	default:
		m.fault(TrapIllegal, "unknown opcode %d", in.Op)
		return
	}
}

// clobbered is the register file a C-ABI host call leaves behind in the
// caller-saved registers: deterministic garbage, which surfaces
// register-allocation bugs in differential tests without breaking
// reproducibility.
var clobbered = func() (r [vx.NumRegs]uint64) {
	for _, g := range vx.CallerSavedGPR {
		r[g] = 0xD15EA5ED0000_0000 | uint64(g)
	}
	for _, f := range vx.CallerSavedFPR {
		r[f] = 0x7FF8_DEAD_0000_0000 | uint64(f) // quiet-NaN pattern
	}
	return r
}()

// scrambleExceptResults models C-ABI clobbering by native library code: the
// caller-saved registers R1..R8 and F1..F7 and FLAGS (= SF), but not the
// return registers R0/F0, which the host implementation has already
// written. The writes are spelled out one register at a time: a range copy
// or an array assignment compiles to runtime.memmove, which costs an LLFI
// call more than the clobber itself. TestScrambleTableMatchesReference pins
// them to the per-register loop over vx.CallerSavedGPR/FPR.
func (m *Machine) scrambleExceptResults() {
	r, c := &m.Regs, &clobbered
	r[vx.R1], r[vx.R2], r[vx.R3], r[vx.R4] = c[vx.R1], c[vx.R2], c[vx.R3], c[vx.R4]
	r[vx.R5], r[vx.R6], r[vx.R7], r[vx.R8] = c[vx.R5], c[vx.R6], c[vx.R7], c[vx.R8]
	r[vx.F1], r[vx.F2], r[vx.F3], r[vx.F4] = c[vx.F1], c[vx.F2], c[vx.F3], c[vx.F4]
	r[vx.F5], r[vx.F6], r[vx.F7] = c[vx.F5], c[vx.F6], c[vx.F7]
	r[vx.RFLAGS] = vx.FlagS
}

// FlipBit XORs a single bit into a register. FPR values are stored as bit
// patterns, so the same operation covers both classes; flips into FLAGS only
// touch the architecturally meaningful bits (a flip elsewhere is masked, as
// the reserved bits of a real FLAGS register would be).
func (m *Machine) FlipBit(r vx.Reg, bit uint) {
	m.Regs[r] ^= 1 << (bit & 63)
}

// RegBitSize returns the injectable width of a register for operand/bit
// selection: 64 for GPRs and FPRs, FlagsBits for FLAGS.
func RegBitSize(r vx.Reg) uint {
	if r.IsFlags() {
		return vx.FlagsBits
	}
	return 64
}
