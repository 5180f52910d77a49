// Package llfi implements the IR-level comparator: fault injection by
// instrumenting the compiler's intermediate representation with injectFault
// calls, in the style of the LLFI tool (paper §3.3, §5.2). The pass runs on
// *optimized* IR — LLFI's documented workflow is source → IR → opt -O3 →
// instrument → native code generation (§A.3.1) — and wraps every
// value-producing instruction in a call that threads the value through the
// fault-injection runtime.
//
// This reproduces both accuracy problems the paper identifies:
//
//   - Population mismatch (§3.3.1): only IR-visible instructions are
//     instrumented. Function prologues/epilogues, register spills and other
//     stack management emitted by the backend are invisible here, and IR
//     values carry no FLAGS register.
//
//   - Code-generation interference (§3.3.2): each injectFault call is a real
//     C-ABI call in the final binary. The register allocator must assume it
//     clobbers every caller-saved register, so values live across the call
//     migrate to the few callee-saved registers or spill to the stack, and
//     the emitted code degenerates to memory-operand form — the Listing 2c
//     shape.
package llfi

import (
	"math"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vx"
)

// Host function names of the injectFault runtime, by value type.
const (
	HostFaultI64 = "llfi_injectFault_i64"
	HostFaultF64 = "llfi_injectFault_f64"
	HostFaultI1  = "llfi_injectFault_i1"
	HostFaultPtr = "llfi_injectFault_ptr"
)

// Instrument adds injectFault calls to every selected function of an
// optimized module. It returns the number of static sites instrumented. The
// module must still be legalized (opt.Legalize) and compiled afterwards.
func Instrument(m *ir.Module, cfg fault.Config) int {
	m.DeclareHost(ir.HostDecl{Name: HostFaultI64, Params: []ir.Type{ir.I64, ir.I64}, Ret: ir.I64})
	m.DeclareHost(ir.HostDecl{Name: HostFaultF64, Params: []ir.Type{ir.I64, ir.F64}, Ret: ir.F64})
	m.DeclareHost(ir.HostDecl{Name: HostFaultI1, Params: []ir.Type{ir.I64, ir.I1}, Ret: ir.I1})
	m.DeclareHost(ir.HostDecl{Name: HostFaultPtr, Params: []ir.Type{ir.I64, ir.Ptr}, Ret: ir.Ptr})

	sites := 0
	for _, f := range m.Funcs {
		if !cfg.FuncSelected(f.Name) {
			continue
		}
		instrumentFunc(f, &sites)
	}
	return sites
}

// targetIR reports whether an IR instruction is in LLFI's population: a
// value-producing computational instruction. Constants, parameters, phis,
// allocas and address-of-global leaves are not executable instructions, and
// the injectFault calls themselves are excluded.
func targetIR(v *ir.Value) bool {
	switch v.Op {
	case ir.OpConstI, ir.OpConstF, ir.OpParam, ir.OpGlobal, ir.OpPhi, ir.OpAlloca,
		ir.OpStore, ir.OpBr, ir.OpCondBr, ir.OpRet:
		return false
	case ir.OpCall:
		if v.Type == ir.Void {
			return false
		}
		switch v.Aux {
		case HostFaultI64, HostFaultF64, HostFaultI1, HostFaultPtr:
			return false
		}
		return true
	}
	return v.Op.HasResult(v.Type)
}

func instrumentFunc(f *ir.Func, sites *int) {
	for _, b := range f.Blocks {
		// Snapshot: we insert while walking.
		vals := append([]*ir.Value(nil), b.Values...)
		for _, v := range vals {
			if !targetIR(v) {
				continue
			}
			*sites++
			var callee string
			switch v.Type {
			case ir.F64:
				callee = HostFaultF64
			case ir.I1:
				callee = HostFaultI1
			case ir.Ptr:
				callee = HostFaultPtr
			default:
				callee = HostFaultI64
			}
			id := f.NewValueAt(b, posIn(b, v)+1, ir.OpConstI, ir.I64)
			id.AuxInt = int64(*sites)
			call := f.NewValueAt(b, posIn(b, v)+2, ir.OpCall, v.Type, id, v)
			call.Aux = callee
			f.ReplaceUses(v, call, call)
		}
	}
}

func posIn(b *ir.Block, v *ir.Value) int {
	for i, w := range b.Values {
		if w == v {
			return i
		}
	}
	panic("llfi: value not in block")
}

// SiteMap returns the per-PC bitmap of the image's LLFI instrumentation
// call sites — the CALLQ instructions into the injectFault runtime. Each
// execution of a marked call drives exactly one runtime invocation, so a
// run stepped over this map counts the same dynamic instrumented
// population a never-firing Lib counts from inside the host functions, without
// paying their modeled call costs: a PC-indexed census with no closure per
// instruction (and a cross-layer check that instrumentation, code generation
// and the runtime agree on the population).
func SiteMap(img *vm.Image) []bool {
	isFault := map[string]bool{
		HostFaultI64: true, HostFaultF64: true, HostFaultI1: true, HostFaultPtr: true,
	}
	return vm.TargetMap(img, func(in *vm.Inst) bool {
		return in.Op == vx.CALLQ && in.HostIdx >= 0 &&
			int(in.HostIdx) < len(img.HostFns) && isFault[img.HostFns[in.HostIdx]]
	})
}

// injectFaultCycles is the modeled per-call cost of LLFI's injectFault
// runtime. Unlike REFINE's hand-written counting stub or PIN's inlined
// analysis code, LLFI's runtime is a general C++ routine: it consults the
// fault-specification structures, dispatches through the configured fault
// type, and maintains per-site bookkeeping on every invocation. Together
// with the C-ABI call emitted around every instrumented IR instruction and
// the register-allocation damage those calls cause, this is what makes LLFI
// campaigns several times slower than binary-level ones (paper Figure 5:
// up to 9.4×, 3.9× overall).
const injectFaultCycles = 200

// Lib is LLFI's injectFault runtime: it counts dynamic instrumented
// instructions, passes every value through unchanged, and flips one uniformly
// drawn bit of the value flowing through the Target-th. A profile run is a
// trial that never fires: a negative Target never triggers, and Count after
// the run is the population. IR values have a single destination and no
// flags, so the operand draw is degenerate — exactly the fault-model
// impoverishment the paper attributes to IR-level injectors.
//
// A call that does not inject passes its value through and counts, and Bind
// declares those calls to the VM (vm.Inert, with Count as the counter and
// the value's register as the return), so the hook-free loop makes them
// itself: the closure runs only at the target or at the call that reaches a
// mark. The modeled cost of every call is unchanged — injectFaultCycles and
// the C-ABI clobber — since that is the instrumented binary's, not the host's.
type Lib struct {
	Target int64 // dynamic index to inject at (0-based; < 0 ⇒ never)
	RNG    *fault.RNG

	// Count is the number of runtime calls so far. A trial that starts from
	// a snapshot of the golden run starts it at the number of calls the
	// snapshot's prefix made.
	Count     int64
	Triggered bool
	Rec       fault.Record

	// Marks and AtMark are core.Lib's: the call that brings Count to a mark
	// arms a fire point at its own instruction, so AtMark runs at the
	// boundary right behind it, after the C-ABI scramble.
	Marks  []int64
	AtMark func(count int64)
	mark   int          // Marks[:mark] have been armed
	next   int64        // Marks[mark], or math.MaxInt64 when none is left
	fire   vm.FirePoint // the one fire point every mark re-arms
	event  int64        // the Count at which a call next has work (vm.Inert)
}

// nextEvent returns the first call count from Count on at which a call has
// work to do — the target, or the call before the next mark — or a count no
// run reaches.
func (l *Lib) nextEvent() int64 {
	e := int64(math.MaxInt64)
	if l.next > l.Count { // a mark already passed is never armed
		e = l.next - 1
	}
	if l.Target >= l.Count {
		e = min(e, l.Target)
	}
	return e
}

// Bind installs the runtime on a machine.
func (l *Lib) Bind(m *vm.Machine) {
	l.next = math.MaxInt64
	if l.mark < len(l.Marks) {
		l.next = l.Marks[l.mark]
	}
	l.fire.Fn = func(*vm.Machine, int32, *vm.Inst) { l.AtMark(l.Count) }
	l.event = l.nextEvent()
	flip := func(mm *vm.Machine, isF64 bool, width int64) {
		if l.Count == l.Target {
			l.Triggered = true
			bit := uint(l.RNG.Intn(width))
			l.Rec = fault.Record{
				DynIdx: l.Count,
				// The VM syncs mm.PC past the call before host dispatch, so
				// the injecting instruction is the previous one. Recording it
				// gives every tool a PC, which the campaign cache uses to
				// attribute each trial to its target function (section).
				PC:     mm.PC - 1,
				SiteID: int32(int64(mm.Regs[vx.R1])),
				Bit:    bit,
				Op:     "ir-value",
			}
			if isF64 {
				mm.Regs[vx.F0] ^= 1 << bit
				l.Rec.Reg = vx.F0
			} else {
				mm.Regs[vx.R0] = mm.Regs[vx.R2] ^ 1<<bit
				l.Rec.Reg = vx.R0
			}
		} else if !isF64 {
			// An f64 value is already in F0; the C ABI returns it there.
			mm.Regs[vx.R0] = mm.Regs[vx.R2]
		}
		l.Count++
		if l.Count == l.next {
			l.mark++
			l.next = math.MaxInt64
			if l.mark < len(l.Marks) {
				l.next = l.Marks[l.mark]
			}
			l.fire.At, l.fire.PC = mm.InstrCount, mm.PC-1
			mm.ArmFire(&l.fire)
		}
		l.event = l.nextEvent()
	}
	// An inert call returns its value: R2 for the integer hosts, F0 already
	// for f64 (R0 stays what it was).
	bind := func(name string, isF64 bool, width int64, ret vx.Reg) {
		m.BindHost(vm.HostFn{Name: name, Fn: func(mm *vm.Machine) { flip(mm, isF64, width) }, Cycles: injectFaultCycles,
			Inert: vm.Inert{Count: &l.Count, Event: &l.event, Ret: ret}})
	}
	bind(HostFaultI64, false, 64, vx.R2)
	bind(HostFaultI1, false, 1, vx.R2)
	bind(HostFaultPtr, false, 64, vx.R2)
	bind(HostFaultF64, true, 64, vx.R0)
}
