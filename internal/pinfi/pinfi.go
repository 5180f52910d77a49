// Package pinfi implements the binary-level comparator: fault injection via
// dynamic binary instrumentation in the style of the PINFI tool the paper
// uses as its accuracy baseline (§5.2). The VM's inline counting observer
// (vm.CountHook) stands in for PIN's instruction-level instrumentation: it
// observes the executed machine instruction stream of the *uninstrumented,
// optimized* binary — the definitive dynamic instruction population.
//
// The package models PIN's costs explicitly (per-instruction analysis
// callback plus one-time JIT translation of the code it executes) and
// implements the paper's performance modification: once the single fault has
// been injected, PINFI removes all instrumentation and detaches (§5.2),
// letting the rest of the run execute at native speed.
package pinfi

import (
	"repro/internal/fault"
	"repro/internal/vm"
)

// CostModel holds the deterministic cycle model for PIN-style dynamic binary
// instrumentation. Only ratios against vx cycle costs matter.
type CostModel struct {
	// PerInstr is the analysis-callback cost charged for every instruction
	// executed while instrumentation is attached.
	PerInstr int64
	// JITPerStaticInstr is the one-time translation cost charged per static
	// instruction of the image (PIN recompiles every trace it touches).
	JITPerStaticInstr int64
}

// DefaultCosts reflects published PIN overheads scaled to the VX64 cycle
// model: a per-instruction analysis trampoline (register save + call into
// the counting routine + restore) costs tens of cycles, and trace
// translation costs tens of cycles per static instruction, amortized over
// the run. With these constants the three tools' modeled campaign times
// land in the paper's measured regime (Figure 5: LLFI ≈ 3.9× PINFI overall,
// REFINE within 0.7–1.8×); the ablation benches expose the sensitivity.
func DefaultCosts() CostModel {
	return CostModel{PerInstr: 55, JITPerStaticInstr: 60}
}

// TargetMap precomputes the per-PC bitmap of the injection population under
// the configuration — the representation vm.CountHook counts without closure
// indirection. The population predicate is
// purely static per instruction (class, output registers, owning function),
// so the bitmap is exact; campaigns cache it per binary
// (campaign.Binary.TargetMap) instead of recomputing per trial.
func TargetMap(img *vm.Image, cfg fault.Config) []bool {
	return vm.TargetMap(img, func(in *vm.Inst) bool { return cfg.TargetInst(img, in) })
}

// Profile runs the one observed golden pass of a binary-level build on a
// fresh machine: counting instrumentation attached for the whole run (as
// PINFI's profiling tool does), so the VM executes it through Step, whose
// Fire — re-armed at every occurrence — records the fire-point index the
// trials are scheduled from. It returns the index
// (N is the dynamic target count) and the golden output; the machine is left
// halted with the dynamic instruction count the 10× timeout budget derives
// from. The recorded indices are exact for every trial of the campaign: a
// trial's pre-injection prefix is bit-identical to this run (Cycles and
// Budget never influence the architectural trajectory).
func Profile(m *vm.Machine, targets []bool, costs CostModel) (*FirePoints, []uint64) {
	m.Cycles += costs.JITPerStaticInstr * int64(len(m.Img.Instrs))
	fps := &FirePoints{}
	ch := &vm.CountHook{Targets: targets, PerInstr: costs.PerInstr}
	ch.Fire = func(mm *vm.Machine, pc int32, _ *vm.Inst) {
		fps.add(mm.InstrCount, pc)
		ch.Arm++
	}
	m.Count = ch
	m.Run()
	m.Count = nil
	return fps, append([]uint64(nil), m.Output...)
}

// A binary-level trial is one injection — an ExecHook-shaped callback that
// runs once, after the target-th dynamic target instruction commits — armed
// on a machine in its start state by one of the two carriers below; the caller
// then runs the machine, which is left halted for outcome classification.
// The injections are Flip, CorruptOpcode (opcode.go) and multibit's double
// flip. Both carriers hand the injection the same machine state (the
// instruction's effects committed, its PerInstr cost charged, no observer
// attached), so everything a campaign derives from a trial is bit-identical
// between them — the differential suite holds the fired carrier to the
// counted one and to RunStepped.

// ArmFired is the production carrier: it looks the target occurrence up in
// the fire-point index and arms the VM's fire-point seam at that absolute
// instruction index. The whole trial — prefix, injection, suffix — runs on
// the hook-free fast loop with zero observed instructions; the deferred
// PerInstr observer cost is settled as a lump sum at the fire (see
// vm.FirePoint).
//
// The machine need not be at instruction 0: a snapshot of the golden run
// (vm.Machine.Restore) at or before the target occurrence is as good a start
// as Reset. This is the one place a binary-level trial's cycles are made
// whole. A snapshot holds the golden run's bare Cycles — no JIT lump, no
// observer cost, so it belongs to no cost model — and ArmFired charges the
// JIT lump plus PerInstr for the InstrCount instructions the start state
// skipped; the fire point is armed from that InstrCount, so the lump sum at
// the fire covers exactly the remainder.
func ArmFired(m *vm.Machine, fps *FirePoints, costs CostModel, target int64, inject vm.ExecHook) {
	m.Cycles += costs.JITPerStaticInstr*int64(len(m.Img.Instrs)) + costs.PerInstr*m.InstrCount
	at, pc := fps.Lookup(target)
	m.ArmFire(&vm.FirePoint{At: at, PC: pc, PerInstr: costs.PerInstr, Fn: inject})
}

// ArmCounted is the reference carrier, PINFI as the paper describes it, for
// a freshly reset machine: a counting hook attached from instruction 0
// counts target occurrences through an observed prefix and, at the target-th,
// removes the instrumentation and detaches (the §5.2 optimization) before
// injecting.
func ArmCounted(m *vm.Machine, targets []bool, costs CostModel, target int64, inject vm.ExecHook) {
	m.Cycles += costs.JITPerStaticInstr * int64(len(m.Img.Instrs))
	m.Count = &vm.CountHook{
		Targets: targets, PerInstr: costs.PerInstr, Arm: target,
		Fire: func(mm *vm.Machine, pc int32, in *vm.Inst) {
			mm.Count = nil
			inject(mm, pc, in)
		},
	}
}

// Flip is the register-flip injection (the paper's single-bit fault model):
// it flips one uniformly drawn bit of one uniformly drawn output register of
// the instruction it lands on and logs the fault to rec — which stays zero
// when the run ends before the injection does.
func Flip(target int64, rng *fault.RNG, rec *fault.Record) vm.ExecHook {
	return func(m *vm.Machine, pc int32, in *vm.Inst) {
		outs := in.Outs[:in.NOut]
		op, bit := fault.PickOperandAndBit(rng, outs)
		m.FlipBit(outs[op], bit)
		*rec = fault.Record{DynIdx: target, PC: pc, Reg: outs[op], Bit: bit, Op: in.Op.String()}
	}
}
