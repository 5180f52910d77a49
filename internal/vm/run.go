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
// predecoded uops, the budget check hoisted into one deadline, each
// straight-line run charged once, REFINE's site superinstruction. A machine
// with a TraceRing attached when Run starts is stepped throughout instead,
// through Step, the reference path, so the ring sees every architectural
// instruction unfused; nothing attaches mid-run. A fire-point trial
// (ArmFire) never leaves runFast: the injection rides the same deadline as
// the budget — runFast steps the few instructions of the run it falls in —
// and a callback that steps the machine on (pinfi.Observe) hands it back
// where the stepping stopped. The differential suites pin runFast to Step
// through RunStepped.
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
//
// It charges a straight-line run of uops once (predecode.go, runs): the
// loop's head adds the run's instructions and cycles to InstrCount and
// Cycles, and the run's uops then dispatch on the local pc with no
// accounting of their own. The uop that ends the run writes PC and goes
// back to the head: a terminator where it branches to, a breaker — a host
// call, a fused site — the slot behind it, before it runs Go or hands over
// to unfused slots, and the overflow cut the slot behind it once it ran. A
// uop that traps or halts inside a run, a generic one included, takes back
// the charge for the uops behind it (unwind). So InstrCount, Cycles and PC
// are exact at the end of every run — and a breaker is the end of its run
// — which is the only place anything can see them: a trap, a halt, host Go,
// a fire callback.
func (m *Machine) runFast() {
	img := m.Img
	code := img.code
	end := int32(len(img.Instrs)) // the exit sentinel's slot
	// The budget and the fire point as one deadline: Step's `InstrCount >=
	// Budget` and the fire seam's `InstrCount >= fire.At` in one compare. A
	// run is entered whole when its last instruction starts before the
	// deadline. With neither pending it is effectively never.
	deadline := m.fastDeadline()
loop:
	for {
		pc := m.PC
		if uint32(pc) < uint32(len(code)) && m.InstrCount+int64(code[pc].rem) <= deadline {
			m.InstrCount += int64(code[pc].rem)
			m.Cycles += int64(code[pc].remCy)
		run:
			for {
				u := &code[pc]
				switch u.kind {
				case uMOVrr:
					m.Regs[u.a] = m.Regs[u.b]

				case uMOVri:
					m.Regs[u.a] = uint64(u.imm)

				// Memory accesses take the inlined fast path (peek64,
				// poke64) and call out only for a fault or, on a store,
				// the dirty marking.

				case uLOAD:
					addr := m.uopAddr(u)
					v, ok := m.peek64(addr)
					if !ok {
						m.unwind(u, pc)
						m.loadFault(addr)
						return
					}
					m.Regs[u.a] = v

				case uSTORE:
					addr, v := m.uopAddr(u), m.Regs[u.a]
					if !m.poke64(addr, v) && !m.store64(addr, v) {
						m.unwind(u, pc)
						return
					}

				case uSTOREi:
					addr := m.tgtAddr(u)
					if !m.poke64(addr, uint64(u.imm)) && !m.store64(addr, uint64(u.imm)) {
						m.unwind(u, pc)
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
						m.unwind(u, pc)
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
					m.Regs[vx.RFLAGS] = ucomisd(m.Regs[u.a], m.Regs[u.b])

				case uCMPrr:
					m.Regs[vx.RFLAGS] = cmpFlags(m.Regs[u.a], m.Regs[u.b])
				case uCMPri:
					m.Regs[vx.RFLAGS] = cmpFlags(m.Regs[u.a], uint64(u.imm))
				case uTESTrr:
					m.setFlagsZS(m.Regs[u.a] & m.Regs[u.b])

				case uSETCC:
					if vx.Cond(u.cond).Eval(m.Regs[vx.RFLAGS]) {
						m.Regs[u.a] = 1
					} else {
						m.Regs[u.a] = 0
					}

				case uPUSHr:
					if v := m.Regs[u.a]; !m.pushFast(v) && !m.push(v) {
						m.unwind(u, pc)
						return
					}
				case uPOPr:
					v, ok := m.popFast()
					if !ok {
						m.unwind(u, pc)
						m.loadFault(m.Regs[vx.SP])
						return
					}
					m.Regs[u.a] = v
				case uPUSHF:
					if v := m.Regs[vx.RFLAGS]; !m.pushFast(v) && !m.push(v) {
						m.unwind(u, pc)
						return
					}
				case uPOPF:
					v, ok := m.popFast()
					if !ok {
						m.unwind(u, pc)
						m.loadFault(m.Regs[vx.SP])
						return
					}
					m.Regs[vx.RFLAGS] = v

				case uNOP:

				case uGeneric, uCUT:
					// Full decode through the reference switch. It never
					// writes PC (every JMP, JCC, CALLQ and RET has a kind of
					// its own) and runs no Go of a host's; its memory
					// surcharges come as Step charges them. uCUT ends its
					// run (runs), as a breaker does.
					m.execOp(pc, &img.Instrs[pc])
					if m.Halted {
						m.unwind(u, pc)
						return
					}
					if u.kind == uCUT {
						m.PC = pc + 1
						continue loop
					}

				// Terminators: the run ends here, PC is written and the
				// loop's head takes over.

				case uJMP:
					m.PC = u.tgt
					continue loop

				case uJCC:
					if vx.Cond(u.cond).Eval(m.Regs[vx.RFLAGS]) {
						m.PC = u.tgt
					} else {
						m.PC = pc + 1
					}
					continue loop

				case uRET:
					v, ok := m.popFast()
					if !ok {
						m.unwind(u, pc)
						m.loadFault(m.Regs[vx.SP])
						return
					}
					if v > uint64(end) {
						m.unwind(u, pc)
						m.fault(TrapBadPC, "ret to %#x", v)
						return
					}
					m.PC = int32(v)
					continue loop

				case uCALL:
					if ret := uint64(pc + 1); !m.pushFast(ret) && !m.push(ret) {
						m.unwind(u, pc)
						return
					}
					m.PC = u.tgt
					continue loop

				// Breakers: each ends its run, points PC behind itself and
				// goes back to the loop's head.

				case uCALLH:
					m.PC = pc + 1
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
						continue loop
					}
					h.Fn(m)
					if !h.PreserveRegs {
						m.scrambleExceptResults()
					}
					// Host code runs arbitrary Go: it may halt the machine or
					// change the budget (recompute the deadline either way).
					if m.Halted {
						return
					}
					deadline = m.fastDeadline()
					continue loop

				case uSITE:
					// Site superinstruction (site.go): the not-triggered path in
					// one go — the head store and the saves, or no write at all
					// — or the head store and then the unfused slots.
					m.PC = pc + 1
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
						// The site writes, unless the next site rewrites the
						// slot and the save area before anything can read them
						// (site.go).
						m.markDirty(s.abs)
						binary.LittleEndian.PutUint64(m.Mem[s.abs:], sp)
						if !inert || left < siteAfterHead || sp < DefaultGlobalBase+siteSaveBytes || sp > uint64(len(m.Mem)) {
							continue loop
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
					continue loop

				case uEND:
					// The exit sentinel: a normal halt, exit code in R0. With
					// the deadline due, Step decides: a due fire point
					// services first, and the sentinel beats an exhausted
					// budget (bounds before budget).
					m.PC = pc
					if m.InstrCount >= deadline {
						break run
					}
					m.Halted = true
					m.ExitCode = int64(m.Regs[vx.R0])
					return
				}
				pc++
			}
		}
		// The deadline falls inside the run at PC, or PC is the sentinel
		// with the deadline due, or outside the stream: Step, the
		// reference, runs one instruction. It services a due fire point
		// first — right behind instruction At, before the next
		// instruction's sentinel, bad-pc and budget checks — and a callback
		// may leave the machine anywhere, so the loop looks again with the
		// deadline recomputed. A run the deadline falls in is stepped up to
		// it: a few instructions per fire point.
		m.Step()
		if m.Halted {
			return
		}
		deadline = m.fastDeadline()
	}
}

// unwind takes back, when the uop at pc traps or halts, what its run's head
// charged for the uops behind it, and points PC behind the instruction, as
// Step leaves it.
func (m *Machine) unwind(u *uop, pc int32) {
	m.InstrCount -= int64(u.rem) - 1
	m.Cycles -= int64(u.remCy) - int64(u.cost)
	m.PC = pc + 1
}

// fastDeadline computes the InstrCount at which runFast leaves its fast
// path: the nearer of the caller budget and the armed fire point
// (effectively never when neither is pending). Recomputed wherever
// arbitrary Go may have run: behind a host call that entered Fn, and behind
// every instruction Step ran, which services the fire point.
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
	return m.baseIndex(u) + uint64(u.imm)
}

// tgtAddr computes the effective address of a uop whose immediate is taken,
// so its displacement is in tgt (uSTOREi).
func (m *Machine) tgtAddr(u *uop) uint64 {
	return m.baseIndex(u) + uint64(int64(u.tgt))
}

// baseIndex is a uop memory operand's base plus scaled index.
func (m *Machine) baseIndex(u *uop) uint64 {
	var a uint64
	if u.b != uint8(vx.NoReg) {
		a = m.Regs[u.b]
	}
	if u.c != uint8(vx.NoReg) {
		a += m.Regs[u.c] * uint64(u.scale)
	}
	return a
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

// ucomisd computes UCOMISD's flags for the bit patterns a and b.
func ucomisd(a, b uint64) uint64 {
	fa, fb := math.Float64frombits(a), math.Float64frombits(b)
	switch {
	case math.IsNaN(fa) || math.IsNaN(fb):
		return vx.FlagZ | vx.FlagC | vx.FlagP
	case fa == fb:
		return vx.FlagZ
	case fa < fb:
		return vx.FlagC
	}
	return 0
}

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
