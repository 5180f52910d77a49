package vm

// This file implements the fire-point seam: one-shot injection scheduling at
// an absolute instruction index, serviced by the hook-free fast loop (and,
// for loop equivalence, by Step). It is the budget-trap
// machinery generalized into a second deadline: a binary-level trial that
// knows — from a recorded golden pass — the absolute InstrCount of its
// injection point arms a FirePoint instead of counting target occurrences
// through an observed prefix, so the entire pre-injection run executes at
// hook-free speed (the ZOFI argument: injection timing as a budget, not
// per-instruction counting).

// FirePoint is a one-shot injection callback scheduled at an absolute
// instruction index. Arm with Machine.ArmFire; the run services it exactly
// once, at the first inter-instruction boundary where InstrCount >= At —
// i.e. in the observer epilogue of the At-th committed instruction, the same
// point a CountHook.Fire armed at that dynamic occurrence would run. It
// composes with a caller Budget: the fast loop's countdown tracks the nearer
// of the two deadlines and is recomputed after the fire services.
type FirePoint struct {
	// At is the absolute InstrCount at which the callback runs: Fn is
	// serviced after the At-th instruction commits, before the next
	// instruction's sentinel, bad-pc and budget checks.
	At int64
	// PC is the program counter of the fired instruction, passed to Fn
	// together with &Img.Instrs[PC]. The caller derives it from the same
	// recorded golden pass as At; the pre-fire prefix is deterministic, so
	// it is the PC the machine actually executed at instruction At.
	PC int32
	// PerInstr is the deferred per-instruction observer cost: the cycle
	// surcharge a CountHook with the same PerInstr would have charged for
	// every committed instruction while attached. The fast loop does not
	// pay it per instruction — it is settled as the lump sum
	// PerInstr × (committed instructions since arming) when the fire point
	// services, or when Run returns with it still pending (a budget smaller
	// than At times the run out first; the lump sum then covers exactly the
	// budgeted instructions, matching the counted path's running charge).
	PerInstr int64
	// Fn is the injection callback, with ExecHook's signature and the same
	// machine state a CountHook.Fire would see: the fired instruction's
	// architectural effects are committed and the deferred PerInstr cost is
	// settled. It may flip registers, mutate the image (Repredecode updates
	// the predecoded stream in place, so the running loop sees it), halt,
	// attach observers, or change the Budget; the loops resynchronize after
	// it returns.
	Fn ExecHook

	base int64 // InstrCount at arm time (lump-sum settlement base)
}

// ArmFire arms the one-shot fire point for the current run. Arming is
// per-run state: Reset disarms, like Budget, Count and Trace (machine-reuse
// hygiene — a pooled machine must not leak a pending injection into the next
// trial).
func (m *Machine) ArmFire(fp *FirePoint) {
	fp.base = m.InstrCount
	m.fire = fp
}

// FireArmed reports whether an armed fire point is still pending (false
// after it services or settles).
func (m *Machine) FireArmed() bool { return m.fire != nil }

// serviceFire disarms and runs the due fire point: the deferred PerInstr
// cost of the hook-free prefix is settled, then the callback runs with the
// fired instruction's PC and decoded form.
func (m *Machine) serviceFire() {
	fp := m.fire
	m.fire = nil
	m.Cycles += fp.PerInstr * (m.InstrCount - fp.base)
	if fp.Fn != nil {
		fp.Fn(m, fp.PC, &m.Img.Instrs[fp.PC])
	}
}

// settleFire settles the deferred observer cost of a fire point the run
// never reached (timeout or crash before At): the counted reference keeps its
// counting observer attached to the end of such a run, charging PerInstr for
// every committed instruction, so the lump sum here must cover the same
// count. Run and RunStepped call it on exit; the callback does not run.
func (m *Machine) settleFire() {
	if fp := m.fire; fp != nil {
		m.fire = nil
		m.Cycles += fp.PerInstr * (m.InstrCount - fp.base)
	}
}
