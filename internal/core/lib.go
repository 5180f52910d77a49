package core

import (
	"math"

	"repro/internal/fault"
	"repro/internal/vm"
	"repro/internal/vx"
)

// The control runtime library (paper §4.2.4, Figure 3). The instrumented
// binary calls selInstr after every target instruction; when selInstr
// triggers, setupFI chooses the operand and bit. There is one implementation,
// Lib: the profiling library of Figure 3a is the injection library of Figure
// 3b with a target that is never reached. Its entry points are host
// functions with hand-written-stub semantics: they preserve all registers
// except the return register, so instrumentation needs to save only its own
// scratch state. Each call costs the modeled native-call latency, which is
// the dominant runtime overhead of REFINE (the basic-block approach saves
// the full C-ABI spill/reload dance an IR-level call requires); in host time
// a call that only counts costs the VM a counter bump (see Lib).

// SiteMap returns the per-PC bitmap of the image's REFINE injection sites —
// the application instructions the backend pass assigned a SiteID. Each
// execution of a marked instruction drives exactly one selInstr call, so a
// run stepped over this map counts the same dynamic target population a
// never-firing Lib counts through the control runtime, without executing the
// instrumentation's host calls: a PC-indexed census with no closure per
// instruction. The cross-layer test suite pins the two counts to
// each other on real workloads. The backend pass tags exactly one
// application instruction per SiteID, so the map is the image of the
// predecode-time site index.
func SiteMap(img *vm.Image) []bool {
	tm := make([]bool, len(img.Instrs))
	for id := int32(1); id < img.NumSites; id++ {
		if pc, ok := img.SitePC(id); ok {
			tm[pc] = true
		}
	}
	return tm
}

// Lib is the control library: it counts selInstr calls, answers 1 on the
// Flips consecutive dynamic target instructions starting at the Target-th,
// and serves each resulting setupFI call with a uniform ⟨operand, bit⟩ draw.
// A profile run (Figure 3a) is a trial that never fires: a negative Target
// never triggers, and Count after the run is the dynamic target population.
// Flips == 1 (the default) is the paper's single-bit-flip model (Figure 3b);
// Flips == 2 is REFINE2's double fault, whose second flip lands only if
// execution reaches another target instruction — as on real hardware, a dead
// process cannot be faulted twice.
//
// Almost every selInstr call only counts and answers 0 — the paper's cheap
// stub (§4.2.4) — and Bind declares those calls to the VM (vm.Inert, with
// Count as the counter), so the hook-free loop makes them itself and the
// closure runs only at an event: a count in the trigger window, or the call
// that reaches a mark. The fused site then executes a not-triggered
// occurrence as its saves, a counter bump and its closing SP load.
type Lib struct {
	Target int64 // dynamic index to inject at (0-based; < 0 ⇒ never)
	RNG    *fault.RNG
	Flips  int // consecutive triggering occurrences (≤ 1 ⇒ 1)

	// Count is the number of selInstr calls so far. A trial that starts from
	// a snapshot of the golden run starts it at the number of calls the
	// snapshot's prefix made.
	Count     int64
	Triggered bool
	// Rec describes the first flip: the Record format logs one fault, and
	// any later draw — the second flip, or setupFI re-entered by corrupted
	// control flow — still consumes RNG state deterministically, so trials
	// stay exactly reproducible.
	Rec fault.Record
	// OpIdx is the operand index setupFI chose; the harness resolves it to
	// the architectural register via ResolveRecord (the library itself only
	// sees operand counts and sizes, as in the real implementation).
	OpIdx int
	drawn bool // Rec.Bit and OpIdx hold the first flip's draw

	// Marks are ascending call counts (each ≥ 1) the harness wants to see
	// the machine at: the selInstr call that brings Count to one of them
	// arms a fire point at its own instruction, so AtMark runs at the
	// inter-instruction boundary right behind that call — the call has
	// answered, the machine is between instructions — with Count as its
	// argument. That call has work, so a fused site runs it on its unfused
	// slots, which reach the fire point like any other deadline. Most runs
	// have some: a trial's are where it is compared with the golden run.
	Marks  []int64
	AtMark func(count int64)
	mark   int          // Marks[:mark] have been armed
	next   int64        // Marks[mark], or math.MaxInt64 when none is left
	fire   vm.FirePoint // the one fire point every mark re-arms
	event  int64        // the Count at which selInstr next has work (vm.Inert)
}

// nextEvent returns the first call count from Count on at which selInstr
// has work to do — the next count in the trigger window, or the call before
// the next mark — or a count no run reaches.
func (l *Lib) nextEvent(flips uint64) int64 {
	e := int64(math.MaxInt64)
	if l.next > l.Count { // a mark already passed is never armed
		e = l.next - 1
	}
	if l.Count < l.Target+int64(flips) {
		e = min(e, max(l.Count, l.Target))
	}
	return e
}

// ResolveRecord completes the paper's fault log (target instruction, operand,
// bit) after the run: it looks up Rec.SiteID's application instruction in the
// image's site index (vm.Image.SitePC, built once at predecode) and fills the
// record's PC, mnemonic and, for the OpIdx-th output operand, register.
func (l *Lib) ResolveRecord(img *vm.Image) {
	pc, ok := img.SitePC(l.Rec.SiteID)
	if !l.Triggered || !ok {
		return
	}
	in := &img.Instrs[pc]
	l.Rec.PC = pc
	l.Rec.Op = in.Op.String()
	var buf [3]vx.Reg
	if outs := in.Shape().Outputs(&buf); l.OpIdx < len(outs) {
		l.Rec.Reg = outs[l.OpIdx]
	}
}

// Bind installs the control library on a machine.
func (l *Lib) Bind(m *vm.Machine) {
	flips := uint64(max(l.Flips, 1))
	if l.Target < 0 {
		flips = 0
	}
	l.next = math.MaxInt64
	if l.mark < len(l.Marks) {
		l.next = l.Marks[l.mark]
	}
	l.fire.Fn = func(*vm.Machine, int32, *vm.Inst) { l.AtMark(l.Count) }
	l.event = l.nextEvent(flips)
	selInstr := func(mm *vm.Machine) {
		// Count only grows, so the window [Target, Target+flips) is
		// crossed once: one unsigned compare decides.
		if uint64(l.Count-l.Target) < flips {
			if !l.Triggered {
				l.Triggered = true
				l.Rec.DynIdx = l.Count
				l.Rec.SiteID = int64ToInt32(mm.Regs[vx.R1])
			}
			mm.Regs[vx.R0] = 1
		} else {
			mm.Regs[vx.R0] = 0
		}
		l.Count++
		// One compare on a site's hot path: a sentinel when no mark is left.
		if l.Count == l.next {
			l.mark++
			l.next = math.MaxInt64
			if l.mark < len(l.Marks) {
				l.next = l.Marks[l.mark]
			}
			l.fire.At, l.fire.PC = mm.InstrCount, mm.PC-1
			mm.ArmFire(&l.fire)
		}
		l.event = l.nextEvent(flips)
	}
	m.BindHost(vm.HostFn{Name: HostSelInstr, PreserveRegs: true, Fn: selInstr,
		Inert: vm.Inert{Count: &l.Count, Event: &l.event, Ret: vx.NoReg}})
	m.BindHost(vm.HostFn{
		Name:         HostSetupFI,
		PreserveRegs: true,
		Fn: func(mm *vm.Machine) {
			// After the fault is injected, corrupted control flow can land
			// anywhere — including mid-instrumentation with garbage argument
			// registers. A real library would misbehave inside the dying
			// process; the model returns an inert ⟨op 0, bit 0⟩ instead of
			// crashing the harness.
			nOps := int64(mm.Regs[vx.R1])
			sizes := [2]int64{int64(mm.Regs[vx.R2]), int64(mm.Regs[vx.R3])}
			if nOps < 1 || nOps > 2 || sizes[0] < 1 || (nOps == 2 && sizes[1] < 1) {
				mm.Regs[vx.R0] = 0
				return
			}
			op := l.RNG.Intn(nOps)
			bit := l.RNG.Intn(sizes[op])
			if !l.drawn {
				l.drawn = true
				l.Rec.Bit = uint(bit)
				l.OpIdx = int(op)
			}
			mm.Regs[vx.R0] = uint64(op)<<16 | uint64(bit)
		},
	})
}

func int64ToInt32(v uint64) int32 { return int32(int64(v)) }
