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
// right behind the At-th committed instruction, the point a stepping
// observer that has just seen that instruction commit calls back at. It
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
	// Fn is the injection callback, run with the fired instruction's
	// architectural effects committed. It may flip registers, mutate the
	// image (Repredecode updates the predecoded stream in place, so the
	// running loop sees it), halt, step the machine on through Step, arm
	// another fire point, or change the Budget; the loops resynchronize
	// after it returns.
	Fn ExecHook
}

// ArmFire arms the one-shot fire point for the current run. Arming is
// per-run state: Reset disarms, like Budget and Trace (machine-reuse
// hygiene — a pooled machine must not leak a pending injection into the next
// trial), and Run returns with nothing armed.
func (m *Machine) ArmFire(fp *FirePoint) { m.fire = fp }

// FireArmed reports whether an armed fire point is still pending (false
// after it services or the run that never reached it returns).
func (m *Machine) FireArmed() bool { return m.fire != nil }

// serviceFire disarms and runs the due fire point with the fired
// instruction's PC and decoded form.
func (m *Machine) serviceFire() {
	fp := m.fire
	m.fire = nil
	if fp.Fn != nil {
		fp.Fn(m, fp.PC, &m.Img.Instrs[fp.PC])
	}
}
