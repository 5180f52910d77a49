package core

import (
	"repro/internal/fault"
	"repro/internal/vm"
	"repro/internal/vx"
)

// The control runtime library (paper §4.2.4, Figure 3). The instrumented
// binary calls selInstr after every target instruction; when selInstr
// triggers, setupFI chooses the operand and bit. Implementations are host
// functions with hand-written-stub semantics: they preserve all registers
// except the return register, so instrumentation needs to save only its own
// scratch state. Each call costs the modeled native-call latency, which is
// the dominant runtime overhead of REFINE (the basic-block approach saves
// the full C-ABI spill/reload dance an IR-level call requires).

// SiteMap returns the per-PC bitmap of the image's REFINE injection sites —
// the application instructions the backend pass assigned a SiteID. Each
// execution of a marked instruction drives exactly one selInstr call, so a
// vm.CountHook over this map counts the same dynamic target population
// ProfileLib counts through the control runtime, without executing the
// instrumentation's host calls: a cheap PC-indexed census the hooked fast
// loop services inline. The cross-layer test suite pins the two counts to
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

// ProfileLib counts dynamic target instructions and never triggers
// (Figure 3a). Its destructor-equivalent is reading Count after the run.
type ProfileLib struct {
	Count int64
}

// Bind installs the profiling library on a machine.
func (p *ProfileLib) Bind(m *vm.Machine) {
	m.BindHost(vm.HostFn{
		Name:         HostSelInstr,
		PreserveRegs: true,
		Fn: func(mm *vm.Machine) {
			p.Count++
			mm.Regs[vx.R0] = 0
		},
	})
	m.BindHost(vm.HostFn{
		Name:         HostSetupFI,
		PreserveRegs: true,
		Fn: func(mm *vm.Machine) {
			mm.Regs[vx.R0] = 0 // never reached during profiling
		},
	})
}

// InjectLib implements the single-bit-flip fault model (Figure 3b): it
// triggers on the Target-th dynamic target instruction and then draws the
// operand and bit uniformly.
type InjectLib struct {
	Target int64 // dynamic index to inject at (0-based)
	RNG    *fault.RNG

	count     int64
	Triggered bool
	Rec       fault.Record
	// OpIdx is the operand index setupFI chose; the harness resolves it to
	// the architectural register via ResolveRecord (the library itself only
	// sees operand counts and sizes, as in the real implementation).
	OpIdx int
}

// ResolveRecord fills the register/PC/mnemonic fields of the fault record by
// looking up the instrumented site in the image, completing the paper's
// fault log (target instruction, operand, bit).
func (l *InjectLib) ResolveRecord(img *vm.Image) {
	if !l.Triggered {
		return
	}
	ResolveRecord(img, &l.Rec, l.OpIdx)
}

// ResolveRecord looks up rec.SiteID's application instruction in the image's
// site index (vm.Image.SitePC, built once at predecode) and fills the
// record's PC, mnemonic and (for the opIdx-th output operand) register.
// Shared by every control library speaking the selInstr/setupFI protocol —
// the library itself only sees operand counts and sizes, like the real
// control runtime, so site resolution happens after the run.
func ResolveRecord(img *vm.Image, rec *fault.Record, opIdx int) {
	pc, ok := img.SitePC(rec.SiteID)
	if !ok {
		return
	}
	in := &img.Instrs[pc]
	rec.PC = pc
	rec.Op = in.Op.String()
	if opIdx < int(in.NOut) {
		rec.Reg = in.Outs[opIdx]
	}
}

// Bind installs the injection library on a machine.
func (l *InjectLib) Bind(m *vm.Machine) {
	m.BindHost(vm.HostFn{
		Name:         HostSelInstr,
		PreserveRegs: true,
		Fn: func(mm *vm.Machine) {
			if l.count == l.Target && !l.Triggered {
				l.Triggered = true
				l.Rec.DynIdx = l.count
				l.Rec.SiteID = int64ToInt32(mm.Regs[vx.R1])
				mm.Regs[vx.R0] = 1
			} else {
				mm.Regs[vx.R0] = 0
			}
			l.count++
		},
	})
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
			l.Rec.Bit = uint(bit)
			l.OpIdx = int(op)
			mm.Regs[vx.R0] = uint64(op)<<16 | uint64(bit)
		},
	})
}

func int64ToInt32(v uint64) int32 { return int32(int64(v)) }
