package vm

import (
	"math"

	"repro/internal/vx"
)

// This file implements hooked fast execution: a predecoded dispatch loop
// that services per-instruction observers inline instead of falling back to
// the reference Step decoder. Hooked runs are the cost REFINE's speed claim
// must drive toward zero (the ZOFI argument): all of PINFI's profiling, the
// counted tail of a double-flip trial, and any traced run used to execute
// through Step's full-decode path. They now run over the same uop stream as
// the hook-free fast loop.
//
// Two observer kinds exist, both serviced with straight-line code:
//
//   - CountHook (below): the profiling observer — a per-PC target bitmap, a
//     per-instruction cycle surcharge, and a counter, so a counting profile
//     run costs barely more than the hook-free loop. Its Fire callback, run
//     at one armed occurrence, is the only closure an observer can call.
//   - TraceRing (trace.go): the trace observer — a ring buffer of recent
//     instructions.
//
// Step services them through postExec, whose body the hooked loop inlines,
// so observer semantics (ordering, halt suppression, attach/detach
// transitions) cannot diverge between the reference and fast paths.

// CountHook is the closure-free profiling observer serviced inline by the
// hooked fast loop: after every committed instruction the machine charges
// PerInstr cycles, and increments N when the instruction's PC is marked in
// Targets. It models a PIN-style analysis callback whose work is pure
// counting — the common case for every profiling run and for the
// pre-injection prefix of every binary-level trial.
//
// Fire is the escape hatch for trial injectors: when an executed target
// instruction finds N == Arm, Fire runs *in place of nothing* — counting
// still advances afterwards, matching a closure that injects and then
// increments. Fire typically flips bits and detaches by setting
// m.Count = nil (the paper's §5.2 detach optimization); the loop then drops
// to the hook-free fast path. A Fire that moves Arm to the next occurrence
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
// halts the machine suppresses the trace entry that would have followed it. Step and the hooked fast loop
// share this method, so observer semantics are identical on both paths by
// construction.
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
// differential suites use it as the ground truth the fast loops are pinned
// to; it is never the production path.
func (m *Machine) RunStepped() TrapKind {
	m.Img.ensure()
	for !m.Halted {
		m.Step()
	}
	m.settleFire() // same exit contract as Run
	return m.Trap
}

// runHooked is the hooked fast loop: predecoded uop dispatch with the
// observer epilogue inlined after every instruction. It must stay
// observationally identical to stepping — same traps, same cycle
// accounting, same InstrCount and observer call sequence — and returns when
// the machine halts or the last observer detaches (Run then switches to the
// hook-free loop).
//
// Unlike runFast there is no budget countdown to resync: a Fire can run
// arbitrary code after any instruction and may change Budget, so the loop
// checks Budget directly, exactly like Step. Fused
// compare+branch superinstructions are likewise not taken here — observers
// must see the unfused pair, so the fused kinds execute only their compare
// half and fall through to the branch slot's own unfused uop. The handlers
// mirror runFast's hand-inlined ones; the differential suite
// (hooked_test.go) pins all three dispatchers (execOp, runFast, runHooked)
// to each other bit for bit. The observer epilogue is postExec's body
// inlined (postExec itself remains the reference formulation Step uses).
func (m *Machine) runHooked() {
	img := m.Img
	code := img.code
	n := int32(len(code))
	for {
		if fp := m.fire; fp != nil && m.InstrCount >= fp.At {
			// A due fire point services at the same boundary as in Step and
			// runFast: after instruction At's epilogue, before the next
			// instruction's checks. (Binary-level trials arm it on the
			// hook-free loop; it is serviced here too so arming composes
			// with attached observers on any loop.)
			m.serviceFire()
			if m.Halted || !m.observed() {
				return
			}
		}
		pc := m.PC
		if uint32(pc) >= uint32(n) {
			if pc == n {
				// Return through the exit sentinel: normal halt.
				m.Halted = true
				m.ExitCode = int64(m.Regs[vx.R0])
				return
			}
			m.fault(TrapBadPC, "pc %d outside [0,%d)", pc, n)
			return
		}
		if m.Budget > 0 && m.InstrCount >= m.Budget {
			m.fault(TrapTimeout, "budget %d exhausted", m.Budget)
			return
		}
		u := &code[pc]
		m.InstrCount++
		m.Cycles += int64(u.cost)
		m.PC = pc + 1 // default fallthrough; control flow overrides below

		switch u.kind {
		case uMOVrr:
			m.Regs[u.a] = m.Regs[u.b]

		case uMOVri:
			m.Regs[u.a] = uint64(u.imm)

		case uLOAD:
			v, ok := m.load64(m.uopAddr(u))
			if !ok {
				return
			}
			m.Regs[u.a] = v

		case uSTORE, uSITE:
			// A fused site head executes as the plain store it is here:
			// observers see all 16 instructions of the sequence.
			if !m.store64(m.uopAddr(u), m.Regs[u.a]) {
				return
			}

		case uSTOREi:
			var addr uint64
			if u.b != uint8(vx.NoReg) {
				addr = m.Regs[u.b]
			}
			if u.c != uint8(vx.NoReg) {
				addr += m.Regs[u.c] * uint64(u.scale)
			}
			addr += uint64(int64(u.tgt))
			if !m.store64(addr, uint64(u.imm)) {
				return
			}

		case uLEA:
			m.Regs[u.a] = m.uopAddr(u)

		case uADDrr:
			r := m.Regs[u.a] + m.Regs[u.b]
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uADDri:
			r := m.Regs[u.a] + uint64(u.imm)
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uSUBrr:
			r := m.Regs[u.a] - m.Regs[u.b]
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uSUBri:
			r := m.Regs[u.a] - uint64(u.imm)
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uIMULrr:
			r := uint64(int64(m.Regs[u.a]) * int64(m.Regs[u.b]))
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uIMULri:
			r := uint64(int64(m.Regs[u.a]) * u.imm)
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uANDrr:
			r := m.Regs[u.a] & m.Regs[u.b]
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uANDri:
			r := m.Regs[u.a] & uint64(u.imm)
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uORrr:
			r := m.Regs[u.a] | m.Regs[u.b]
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uORri:
			r := m.Regs[u.a] | uint64(u.imm)
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uXORrr:
			r := m.Regs[u.a] ^ m.Regs[u.b]
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uXORri:
			r := m.Regs[u.a] ^ uint64(u.imm)
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uSHLrr:
			r := m.Regs[u.a] << (m.Regs[u.b] & 63)
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uSHLri:
			r := m.Regs[u.a] << (uint64(u.imm) & 63)
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uSHRrr:
			r := m.Regs[u.a] >> (m.Regs[u.b] & 63)
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uSHRri:
			r := m.Regs[u.a] >> (uint64(u.imm) & 63)
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uSARrr:
			r := uint64(int64(m.Regs[u.a]) >> (m.Regs[u.b] & 63))
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uSARri:
			r := uint64(int64(m.Regs[u.a]) >> (uint64(u.imm) & 63))
			m.Regs[u.a] = r
			m.setFlagsZS(r)

		case uIDIVrr, uIREMrr, uIDIVri, uIREMri:
			a := m.Regs[u.a]
			var b uint64
			if u.kind == uIDIVrr || u.kind == uIREMrr {
				b = m.Regs[u.b]
			} else {
				b = uint64(u.imm)
			}
			if b == 0 || (int64(a) == math.MinInt64 && int64(b) == -1) {
				m.fault(TrapDivide, "divide error at pc %d", pc)
				return
			}
			var r uint64
			if u.kind == uIDIVrr || u.kind == uIDIVri {
				r = uint64(int64(a) / int64(b))
			} else {
				r = uint64(int64(a) % int64(b))
			}
			m.Regs[u.a] = r
			m.setFlagsZS(r)

		case uNEG:
			r := uint64(-int64(m.Regs[u.a]))
			m.Regs[u.a] = r
			m.setFlagsZS(r)

		case uNOT:
			m.Regs[u.a] = ^m.Regs[u.a]

		case uFADDrr:
			m.Regs[u.a] = fadd(m.Regs[u.a], m.Regs[u.b])
		case uFADDri:
			m.Regs[u.a] = fadd(m.Regs[u.a], uint64(u.imm))
		case uFSUBrr:
			m.Regs[u.a] = math.Float64bits(math.Float64frombits(m.Regs[u.a]) - math.Float64frombits(m.Regs[u.b]))
		case uFSUBri:
			m.Regs[u.a] = math.Float64bits(math.Float64frombits(m.Regs[u.a]) - math.Float64frombits(uint64(u.imm)))
		case uFMULrr:
			m.Regs[u.a] = fmul(m.Regs[u.a], m.Regs[u.b])
		case uFMULri:
			m.Regs[u.a] = fmul(m.Regs[u.a], uint64(u.imm))
		case uFDIVrr:
			m.Regs[u.a] = math.Float64bits(math.Float64frombits(m.Regs[u.a]) / math.Float64frombits(m.Regs[u.b]))
		case uFDIVri:
			m.Regs[u.a] = math.Float64bits(math.Float64frombits(m.Regs[u.a]) / math.Float64frombits(uint64(u.imm)))

		case uSQRTrr:
			m.Regs[u.a] = math.Float64bits(math.Sqrt(math.Float64frombits(m.Regs[u.b])))

		case uFXORrr:
			m.Regs[u.a] ^= m.Regs[u.b]

		case uCVTSI2SDrr:
			m.Regs[u.a] = math.Float64bits(float64(int64(m.Regs[u.b])))

		case uCVTTSD2SIrr:
			f := math.Float64frombits(m.Regs[u.b])
			var r int64
			if math.IsNaN(f) || f >= math.MaxInt64 || f < math.MinInt64 {
				r = math.MinInt64
			} else {
				r = int64(f)
			}
			m.Regs[u.a] = uint64(r)

		case uUCOMISDrr:
			a := math.Float64frombits(m.Regs[u.a])
			b := math.Float64frombits(m.Regs[u.b])
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

		case uCMPrr, uCMPrrJCC:
			m.Regs[vx.RFLAGS] = cmpFlags(m.Regs[u.a], m.Regs[u.b])
		case uCMPri, uCMPriJCC:
			m.Regs[vx.RFLAGS] = cmpFlags(m.Regs[u.a], uint64(u.imm))
		case uTESTrr, uTESTrrJCC:
			m.setFlagsZS(m.Regs[u.a] & m.Regs[u.b])
		case uTESTri, uTESTriJCC:
			m.setFlagsZS(m.Regs[u.a] & uint64(u.imm))

		case uJMP:
			m.PC = u.tgt

		case uJCC:
			if vx.Cond(u.cond).Eval(m.Regs[vx.RFLAGS]) {
				m.PC = u.tgt
			}

		case uSETCC:
			if vx.Cond(u.cond).Eval(m.Regs[vx.RFLAGS]) {
				m.Regs[u.a] = 1
			} else {
				m.Regs[u.a] = 0
			}

		case uPUSHr:
			if !m.push(m.Regs[u.a]) {
				return
			}
		case uPOPr:
			v, ok := m.pop()
			if !ok {
				return
			}
			m.Regs[u.a] = v
		case uPUSHF:
			if !m.push(m.Regs[vx.RFLAGS]) {
				return
			}
		case uPOPF:
			v, ok := m.pop()
			if !ok {
				return
			}
			m.Regs[vx.RFLAGS] = v

		case uRET:
			v, ok := m.pop()
			if !ok {
				return
			}
			if v > uint64(n) {
				m.fault(TrapBadPC, "ret to %#x", v)
				return
			}
			m.PC = int32(v)

		case uCALL:
			if !m.push(uint64(pc + 1)) {
				return
			}
			m.PC = u.tgt

		case uCALLH:
			// No countdown to resync and no attach special-case: whatever the
			// host function did to Budget, Count or Trace, the loop reads it
			// fresh — the epilogue below services a freshly attached observer
			// for the attaching instruction, exactly like Step.
			h := &m.hosts[u.tgt]
			if h.Fn == nil {
				m.fault(TrapIllegal, "unbound host function %q", img.HostFns[u.tgt])
				return
			}
			c := h.Cycles
			if c == 0 {
				c = vx.HostCallCycles
			}
			m.Cycles += c
			h.Fn(m)
			if !h.PreserveRegs {
				m.scrambleExceptResults()
			}

		case uNOP:

		case uHALT:
			m.Halted = true
			m.ExitCode = int64(m.Regs[vx.R0])

		default: // uGeneric: full decode through the reference switch.
			m.execOp(pc, &img.Instrs[pc])
		}

		// Observer epilogue — postExec's body inlined (kept in lockstep with
		// it): a halted machine observes nothing, the count hook runs first,
		// then the trace ring; Fire runs before N advances, and a Fire that
		// halts the machine suppresses what would have followed. When the
		// last observer detaches, return so Run drops to the hook-free fast
		// loop.
		if m.Halted {
			return
		}
		if ch := m.Count; ch != nil {
			m.Cycles += ch.PerInstr
			if uint32(pc) < uint32(len(ch.Targets)) && ch.Targets[pc] {
				if ch.N == ch.Arm && ch.Fire != nil {
					ch.Fire(m, pc, &img.Instrs[pc])
				}
				ch.N++
			}
		}
		if tr := m.Trace; tr != nil && !m.Halted {
			tr.record(m.InstrCount, pc, img.Instrs[pc].Op, m.Regs[vx.SP], m.Regs[vx.RFLAGS])
		}
		if m.Halted || !m.observed() {
			return
		}
	}
}
