package vm

import "repro/internal/vx"

// This file holds the per-instruction observers and the one place that
// services them. Two kinds exist, both straight-line code:
//
//   - CountHook (below): the profiling observer — a per-PC target bitmap, a
//     per-instruction cycle surcharge, and a counter. Its Fire callback, run
//     at one armed occurrence, is the only closure an observer can call.
//   - TraceRing (trace.go): the trace observer — a ring buffer of recent
//     instructions.
//
// Step services them through postExec, and Run executes an observed stretch
// through Step (run.go), so there is one formulation of observer semantics —
// ordering, halt suppression, attach/detach transitions — and no second loop
// to keep in lockstep with it. Observation costs nothing where nothing is
// observed (the ZOFI argument): runFast looks for an observer only where one
// can appear — behind a host call or a serviced fire point.

// CountHook is the closure-free profiling observer: after every committed
// instruction the machine charges PerInstr cycles, and increments N when the
// instruction's PC is marked in Targets. It models a PIN-style analysis
// callback whose work is pure counting — a binary-level build's golden pass
// and the pre-injection prefix of a counted reference trial.
//
// Fire is the escape hatch for trial injectors: when an executed target
// instruction finds N == Arm, Fire runs *in place of nothing* — counting
// still advances afterwards, matching a closure that injects and then
// increments. Fire typically flips bits and detaches by setting
// m.Count = nil (the paper's §5.2 detach optimization); Run then drops to
// the hook-free fast loop. A Fire that moves Arm to the next occurrence
// runs again there (the profile pass records every occurrence that way).
// Arm < 0 never fires.
type CountHook struct {
	// Targets marks the PCs whose instructions belong to the counted
	// population (len == len(Img.Instrs); a short or nil slice counts
	// nothing beyond its length).
	Targets []bool
	// PerInstr is charged to Cycles for every executed instruction while
	// the hook is attached (the analysis-callback cost).
	PerInstr int64
	// N counts executed target instructions.
	N int64
	// Arm is the dynamic target index at which Fire runs (Arm < 0: never).
	Arm int64
	// Fire runs on the Arm-th target instruction, after its architectural
	// effects are committed and its PerInstr cost is charged, before N
	// advances.
	Fire ExecHook
}

// TargetMap precomputes the per-PC bitmap of instructions for which keep
// returns true — the population a CountHook counts. The bitmap is valid for
// as long as the image's instruction stream is; injectors that mutate
// instructions in place (opcode corruption) must detach the count hook no
// later than the mutation, as the bitmap is not re-derived.
func TargetMap(img *Image, keep func(*Inst) bool) []bool {
	tm := make([]bool, len(img.Instrs))
	for pc := range img.Instrs {
		tm[pc] = keep(&img.Instrs[pc])
	}
	return tm
}

// postExec runs the per-instruction observers after an instruction's
// architectural effects are committed: the inline CountHook first, then the
// inline TraceRing. A halted machine fires nothing (a trapping instruction
// is not observed, matching Step's historical contract), and a Fire that
// halts the machine suppresses the trace entry that would have followed it.
// runFast calls it once, for the host call that attached an observer, before
// handing the run over to Step.
func (m *Machine) postExec(pc int32, in *Inst) {
	if ch := m.Count; ch != nil && !m.Halted {
		m.Cycles += ch.PerInstr
		if uint32(pc) < uint32(len(ch.Targets)) && ch.Targets[pc] {
			if ch.N == ch.Arm && ch.Fire != nil {
				ch.Fire(m, pc, in)
			}
			ch.N++
		}
	}
	if tr := m.Trace; tr != nil && !m.Halted {
		tr.record(m.InstrCount, pc, in.Op, m.Regs[vx.SP], m.Regs[vx.RFLAGS])
	}
}

// observed reports whether any per-instruction observer is attached.
func (m *Machine) observed() bool {
	return m.Count != nil || m.Trace != nil
}

// RunStepped executes until halt, trap, or budget exhaustion entirely
// through the reference Step path, regardless of attached observers. The
// differential suites use it as the ground truth runFast is pinned to.
func (m *Machine) RunStepped() TrapKind {
	m.Img.ensure()
	for !m.Halted {
		m.Step()
	}
	m.settleFire() // same exit contract as Run
	return m.Trap
}
