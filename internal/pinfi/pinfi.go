// Package pinfi implements the binary-level comparator: fault injection via
// dynamic binary instrumentation in the style of the PINFI tool the paper
// uses as its accuracy baseline (§5.2). Observe stands in for PIN's
// instruction-level instrumentation: it steps the VM through the executed
// machine instruction stream of the *uninstrumented, optimized* binary — the
// definitive dynamic instruction population.
//
// The package models PIN's costs explicitly (per-instruction analysis
// callback plus one-time JIT translation of the code it executes) and
// implements the paper's performance modification: once the single fault has
// been injected, PINFI removes all instrumentation and detaches (§5.2),
// letting the rest of the run execute at native speed. The VM knows nothing
// of either: a trial's injection rides its fire point, and RunFired charges
// what the instrumentation would have cost.
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
// the configuration — the representation Observe looks targets up in. The
// population predicate is
// purely static per instruction (class, output registers, owning function),
// so the bitmap is exact; campaigns cache it per binary
// (campaign.Binary.TargetMap) instead of recomputing per trial.
func TargetMap(img *vm.Image, cfg fault.Config) []bool {
	return vm.TargetMap(img, func(in *vm.Inst) bool { return cfg.TargetInst(img, in) })
}

// Observe is PIN's instrumentation attached to a running machine: it steps m
// through Step, the reference path, charging costs.PerInstr for every
// instruction that commits without halting the machine (a trapping
// instruction is not observed), and calls fn with the PC of every committed
// target instruction (targets[pc]; a short or nil map targets nothing past
// its length). It returns when the machine halts or fn returns false — the
// detach (§5.2), after which whoever runs the machine on does so
// uninstrumented. No fire point may come due while it steps.
func Observe(m *vm.Machine, costs CostModel, targets []bool, fn func(pc int32) bool) {
	for !m.Halted {
		pc := m.PC
		m.Step()
		if m.Halted {
			return
		}
		m.Cycles += costs.PerInstr
		if uint32(pc) < uint32(len(targets)) && targets[pc] && !fn(pc) {
			return
		}
	}
}

// Profile runs the one observed golden pass of a binary-level build on a
// fresh machine: instrumentation attached for the whole run (as PINFI's
// profiling tool does), recording every target occurrence into the
// fire-point index the trials are scheduled from. It returns the index
// (N is the dynamic target count) and the golden output; the machine is left
// halted with the dynamic instruction count the 10× timeout budget derives
// from. The recorded indices are exact for every trial of the campaign: a
// trial's pre-injection prefix is bit-identical to this run (Cycles and
// Budget never influence the architectural trajectory).
func Profile(m *vm.Machine, targets []bool, costs CostModel) (*FirePoints, []uint64) {
	m.Cycles += costs.JITPerStaticInstr * int64(len(m.Img.Instrs))
	fps := &FirePoints{}
	Observe(m, costs, targets, func(pc int32) bool {
		fps.add(m.InstrCount, pc)
		return true
	})
	return fps, append([]uint64(nil), m.Output...)
}

// A binary-level trial is one injection — an ExecHook-shaped callback that
// runs once, after the target-th dynamic target instruction commits — run on
// a machine in its start state by one of the two carriers below, which leave
// the machine halted for outcome classification. The injections are Flip,
// CorruptOpcode (opcode.go) and multibit's double flip. Both carriers hand
// the injection the same machine state (the instruction's effects
// committed, no instrumentation attached) and charge the same cycles, so
// everything a campaign derives from a trial is bit-identical between them —
// the differential suite holds the fired carrier to the counted one, run on
// and stepped.

// RunFired is the production carrier: it looks the target occurrence up in
// the fire-point index, arms the VM's fire-point seam at that absolute
// instruction index and runs the machine. The whole trial — prefix,
// injection, suffix — runs on the hook-free fast loop with zero observed
// instructions, and PIN's cost is charged afterwards: the JIT lump plus
// PerInstr for every instruction the instrumentation would have observed up
// to the injection, min(InstrCount, at) — fewer when the run ends first.
//
// The machine need not be at instruction 0: a snapshot of the golden run
// (vm.Machine.Restore) at or before the target occurrence is as good a start
// as Reset. A snapshot holds the golden run's bare Cycles — no JIT lump, no
// observer cost, so it belongs to no cost model — and the charge counts the
// instructions the start state skipped as observed, as a trial from Reset
// would have them.
func RunFired(m *vm.Machine, fps *FirePoints, costs CostModel, target int64, inject vm.ExecHook) {
	at, pc := fps.Lookup(target)
	m.ArmFire(&vm.FirePoint{At: at, PC: pc, Fn: inject})
	m.Run()
	m.Cycles += costs.JITPerStaticInstr*int64(len(m.Img.Instrs)) + costs.PerInstr*min(m.InstrCount, at)
}

// RunCounted is the reference carrier, PINFI as the paper describes it, for
// a freshly reset machine: instrumentation attached from instruction 0
// counts target occurrences through an observed prefix and, at the
// target-th, injects and detaches (the §5.2 optimization); the machine then
// runs on uninstrumented.
func RunCounted(m *vm.Machine, targets []bool, costs CostModel, target int64, inject vm.ExecHook) {
	m.Cycles += costs.JITPerStaticInstr * int64(len(m.Img.Instrs))
	n := int64(0)
	Observe(m, costs, targets, func(pc int32) bool {
		if n < target {
			n++
			return true
		}
		inject(m, pc, &m.Img.Instrs[pc])
		return false
	})
	m.Run()
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
