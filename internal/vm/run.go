package vm

import (
	"encoding/binary"
	"math"

	"repro/internal/vx"
)

// Run executes until halt, trap, or budget exhaustion. It returns the trap
// kind (TrapNone for a normal halt), with nothing armed.
//
// There are two loops. Run executes the hook-free fast loop (runFast):
// predecoded uops, the budget check hoisted into one deadline, fused
// superinstructions. A machine with a TraceRing attached when Run starts is
// stepped throughout instead, through Step, the reference path, so the ring
// sees every architectural instruction unfused; nothing attaches mid-run.
// A fire-point trial (ArmFire) never leaves runFast: the injection rides the
// same deadline as the budget, and a callback that steps the machine on
// (pinfi.Observe) hands it back where the stepping stopped. The differential
// suites pin runFast to Step through RunStepped.
func (m *Machine) Run() TrapKind {
	if m.Trace != nil {
		return m.RunStepped()
	}
	m.Img.ensure()
	if !m.Halted {
		m.runFast()
	}
	m.fire = nil
	return m.Trap
}

// RunStepped executes until halt, trap, or budget exhaustion entirely
// through the reference Step path. The differential suites use it as the
// ground truth runFast is pinned to. Like Run it returns with nothing armed.
func (m *Machine) RunStepped() TrapKind {
	m.Img.ensure()
	for !m.Halted {
		m.Step()
	}
	m.fire = nil
	return m.Trap
}

// TargetMap precomputes the per-PC bitmap of instructions for which keep
// returns true — an injection population a stepping observer looks up by PC
// (pinfi.Observe). The bitmap is valid for as long as the image's
// instruction stream is; injectors that mutate instructions in place (opcode
// corruption) must stop consulting it no later than the mutation, as the
// bitmap is not re-derived.
func TargetMap(img *Image, keep func(*Inst) bool) []bool {
	tm := make([]bool, len(img.Instrs))
	for pc := range img.Instrs {
		tm[pc] = keep(&img.Instrs[pc])
	}
	return tm
}

// runFast is the hook-free inner interpreter loop over predecoded uops. It
// must stay observationally identical to stepping: same traps, same cycle
// accounting, same InstrCount at every host-call boundary. It returns when
// the machine halts. A host call its HostFn declares inert (HostFn.Inert) is
// made here, without entering the host function.
func (m *Machine) runFast() {
	img := m.Img
	code := img.code
	n := int32(len(code))
	// The budget and the fire point as one deadline: `InstrCount >=
	// deadline` is Step's `InstrCount >= Budget` and the fire seam's
	// `InstrCount >= fire.At` in one compare. A case that runs several
	// instructions tests the distance to it first. With neither pending
	// it is effectively never. A countdown decremented on every dispatch
	// would keep two copies of itself live across the switch (the cases
	// that run several instructions fold their decrement into the
	// dispatch's) and cost the loop a spilled register.
	deadline := m.fastDeadline()
	for {
		pc := m.PC
		if uint32(pc) >= uint32(n) || m.InstrCount >= deadline {
			// Slow path: sentinel/bad-pc, a due fire point, or the budget.
			// A due fire services first — right behind instruction At,
			// before the next instruction's sentinel, bad-pc and budget
			// checks, as in Step — then the loop re-enters at whatever PC
			// the callback left, with the deadline recomputed. A fire
			// callback that halts ends the run.
			if fp := m.fire; fp != nil && m.InstrCount >= fp.At {
				m.serviceFire()
				if m.Halted {
					return
				}
				deadline = m.fastDeadline()
				continue
			}
			if pc == n {
				// Return through the exit sentinel: normal halt. The
				// sentinel wins over an exhausted budget, exactly as in
				// Step (bounds before budget).
				m.Halted = true
				m.ExitCode = int64(m.Regs[vx.R0])
				return
			}
			if uint32(pc) >= uint32(n) {
				m.fault(TrapBadPC, "pc %d outside [0,%d)", pc, n)
				return
			}
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

		case uSTORE:
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
		case uANDri:
			r := m.Regs[u.a] & uint64(u.imm)
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uORrr:
			r := m.Regs[u.a] | m.Regs[u.b]
			m.Regs[u.a] = r
			m.setFlagsZS(r)
		case uSHLri:
			r := m.Regs[u.a] << (uint64(u.imm) & 63)
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

		case uCMPrr:
			m.Regs[vx.RFLAGS] = cmpFlags(m.Regs[u.a], m.Regs[u.b])
		case uCMPri:
			m.Regs[vx.RFLAGS] = cmpFlags(m.Regs[u.a], uint64(u.imm))
		case uTESTrr:
			m.setFlagsZS(m.Regs[u.a] & m.Regs[u.b])

		case uCMPrrJCC, uCMPriJCC, uTESTrrJCC:
			// Fused compare+branch superinstruction: one dispatch, two
			// architectural instructions, accounted as the unfused pair. A
			// deadline between the halves is the loop's slow path: the
			// compare is committed (flags written, PC at the branch slot),
			// so the slow path services a due fire point or times out there
			// exactly as between two single dispatches, and a fire callback
			// that returns resumes at the branch's own unfused uop.
			var b uint64
			if u.kind == uCMPriJCC {
				b = uint64(u.imm)
			} else {
				b = m.Regs[u.b]
			}
			var f uint64
			if u.kind == uTESTrrJCC {
				v := m.Regs[u.a] & b
				if v == 0 {
					f |= vx.FlagZ
				}
				if int64(v) < 0 {
					f |= vx.FlagS
				}
			} else {
				f = cmpFlags(m.Regs[u.a], b)
			}
			m.Regs[vx.RFLAGS] = f
			if m.InstrCount >= deadline {
				continue
			}
			m.InstrCount++
			m.Cycles += int64(u.cost2)
			if vx.Cond(u.cond).Eval(f) {
				m.PC = u.tgt
			} else {
				m.PC = pc + 2
			}

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
			h := &m.hosts[u.tgt]
			if h.Fn == nil {
				m.fault(TrapIllegal, "unbound host function %q", img.HostFns[u.tgt])
				return
			}
			m.Cycles += h.Cycles
			if h.inert() {
				// A declared inert call runs no Go of the library's, so
				// there is nothing for the seams below to find.
				m.callInert(h)
				if !h.PreserveRegs {
					m.scrambleExceptResults()
				}
				continue
			}
			h.Fn(m)
			if !h.PreserveRegs {
				m.scrambleExceptResults()
			}
			// Host code runs arbitrary Go: it may halt the machine or change
			// the budget (recompute the deadline either way).
			if m.Halted {
				return
			}
			deadline = m.fastDeadline()

		case uNOP:

		case uSITE:
			// Site superinstruction (site.go): the not-triggered path in one
			// go — the head store and the saves, or no write at all — or the
			// head store and then the unfused slots.
			s := &img.sites[u.tgt]
			sp := m.Regs[vx.SP]
			if s.abs < DefaultGlobalBase || s.abs > uint64(len(m.Mem))-8 {
				m.store64(s.abs, sp)
				return
			}
			h := &m.hosts[s.host]
			left := deadline - m.InstrCount
			inert := h.siteInert && *h.Inert.Count != *h.Inert.Event
			if !inert || left < s.need || s.need == 0 ||
				sp < s.abs+8+siteSaveBytes || sp > uint64(len(m.Mem))-8-s.maxOff {
				// The site writes, unless the next site rewrites the slot
				// and the save area before anything can read them (site.go).
				m.markDirty(s.abs)
				binary.LittleEndian.PutUint64(m.Mem[s.abs:], sp)
				if !inert || left < siteAfterHead || sp < DefaultGlobalBase+siteSaveBytes || sp > uint64(len(m.Mem)) {
					continue
				}
				lo, hi := (sp-siteSaveBytes)>>dirtyPageShift, (sp-1)>>dirtyPageShift
				m.markPage(lo)
				if hi != lo {
					m.markPage(hi)
				}
				save := (*[siteSaveBytes]byte)(m.Mem[sp-siteSaveBytes : sp])
				binary.LittleEndian.PutUint64(save[32:], m.Regs[vx.RFLAGS])
				binary.LittleEndian.PutUint64(save[24:], m.Regs[vx.R0])
				binary.LittleEndian.PutUint64(save[16:], m.Regs[vx.R1])
				binary.LittleEndian.PutUint64(save[8:], m.Regs[vx.R2])
				binary.LittleEndian.PutUint64(save[0:], m.Regs[vx.R3])
				if s.abs < sp && s.abs+8 > sp-siteSaveBytes {
					m.Regs[vx.SP] = binary.LittleEndian.Uint64(m.Mem[s.abs:])
				}
			}
			*h.Inert.Count++
			m.InstrCount += siteAfterHead
			m.Cycles += s.preCycles + h.Cycles + s.postCycles
			m.PC = s.post + sitePostLen

		case uCALLSITE:
			// Call superinstruction (site.go): the head move, then an inert
			// call with the slots around it in one go, or the unfused slots.
			c := &img.calls[u.tgt]
			m.move(&c.ops[0])
			h := &m.hosts[c.host]
			if deadline-m.InstrCount < callLen-1 || !h.inert() || h.Fn == nil {
				continue
			}
			m.move(&c.ops[1])
			m.callInert(h)
			if !h.PreserveRegs {
				m.scrambleExceptResults()
			}
			m.InstrCount += callLen - 1
			m.Cycles += c.cycles + h.Cycles
			m.PC = c.head + callLen
			if d := &c.ops[2]; d.kind != uSTORE {
				m.move(d)
			} else if !m.store64(m.uopAddr(d), m.Regs[d.a]) {
				return
			}

		default:
			// uGeneric: full decode through the reference switch. Every
			// CALLQ has a kind of its own, so no Go of a host's runs here
			// and the deadline stays exact.
			m.execOp(pc, &img.Instrs[pc])
			if m.Halted {
				return
			}
		}
	}
}

// fastDeadline computes the InstrCount at which runFast leaves its fast
// path: the nearer of the caller budget and the armed fire point
// (effectively never when neither is pending). Recomputed at every seam
// where arbitrary Go ran: a host call that entered Fn, a serviced fire.
func (m *Machine) fastDeadline() int64 {
	d := int64(math.MaxInt64)
	if m.Budget > 0 {
		d = m.Budget
	}
	if fp := m.fire; fp != nil && fp.At < d {
		d = fp.At
	}
	return d
}

// uopAddr computes the effective address of a uop memory operand.
func (m *Machine) uopAddr(u *uop) uint64 {
	var a uint64
	if u.b != uint8(vx.NoReg) {
		a = m.Regs[u.b]
	}
	if u.c != uint8(vx.NoReg) {
		a += m.Regs[u.c] * uint64(u.scale)
	}
	return a + uint64(u.imm)
}

// fadd and fmul are ADDSD and MULSD on bit patterns. When both operands are
// NaN, x64 keeps the destination's payload; Go is free to commute a sum or a
// product, and does so differently from one call site to the next, so that
// case is spelled out once for both dispatchers. The NaN tests are
// integer compares on purpose: a floating-point compare or an out-of-line
// call in these arms costs the hook-free loop several percent.
func fadd(a, b uint64) uint64 {
	return keepDst(math.Float64bits(math.Float64frombits(a)+math.Float64frombits(b)), a, b)
}

func fmul(a, b uint64) uint64 {
	return keepDst(math.Float64bits(math.Float64frombits(a)*math.Float64frombits(b)), a, b)
}

// keepDst returns r, the host's result for destination a and source b, or
// the quieted destination when all three are NaN.
func keepDst(r, a, b uint64) uint64 {
	if isNaN(r) && isNaN(a) && isNaN(b) {
		return a | 1<<51
	}
	return r
}

// isNaN reports whether a bit pattern is a NaN: exponent all ones, mantissa
// not zero.
func isNaN(bits uint64) bool { return bits<<1 > 0xFFE0_0000_0000_0000 }

// cmpFlags computes CMPQ's ZF/SF/CF triple.
func cmpFlags(a, b uint64) uint64 {
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
	return f
}
