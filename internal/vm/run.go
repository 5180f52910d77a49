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
		m.resolveSiteHost()
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
// back to the head: a terminator where it branches to, the overflow cut the
// slot behind it once it ran. An inert host call and a fused site on its
// not-triggered path stay inside the run (a site going on at its exit); a
// host call that enters Go and a site that hands over to its unfused slots
// end it there, taking back the charge for the uops behind them (unwind) and
// pointing PC behind themselves first, and so does a uop that traps or
// halts, a generic one included. So InstrCount, Cycles and PC are exact at
// the end of every run, which is the only place anything can see them: a
// trap, a halt, host Go, a fire callback.
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

				// A case that calls out parks pc in PC across the call
				// (storeOut, pushOut, execOut), so that no dispatch keeps
				// pc or the slot on the stack.

				case uSTORE:
					addr, v := m.uopAddr(u), m.Regs[u.a]
					if !m.poke64(addr, v) {
						m.PC = pc
						if !m.storeOut(addr, v) {
							return
						}
						pc = m.PC
					}

				case uSTOREi:
					addr, v := m.tgtAddr(u), uint64(u.imm)
					if !m.poke64(addr, v) {
						m.PC = pc
						if !m.storeOut(addr, v) {
							return
						}
						pc = m.PC
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
					if condHolds(u.cond, m.Regs[vx.RFLAGS]) {
						m.Regs[u.a] = 1
					} else {
						m.Regs[u.a] = 0
					}

				case uPUSHr:
					if v := m.Regs[u.a]; !m.pushFast(v) {
						m.PC = pc
						if !m.pushOut(v) {
							return
						}
						pc = m.PC
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
					if v := m.Regs[vx.RFLAGS]; !m.pushFast(v) {
						m.PC = pc
						if !m.pushOut(v) {
							return
						}
						pc = m.PC
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
					// run (runs).
					m.PC = pc
					if !m.execOut() {
						return
					}
					if pc = m.PC; code[pc].kind == uCUT {
						m.PC = pc + 1
						continue loop
					}

				// Terminators: the run ends here, PC is written and the
				// loop's head takes over.

				case uJMP:
					m.PC = u.tgt
					continue loop

				case uJCC:
					if condHolds(u.cond, m.Regs[vx.RFLAGS]) {
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
					if ret := uint64(pc + 1); !m.pushFast(ret) {
						m.PC = pc
						if !m.pushOut(ret) {
							return
						}
						pc = m.PC
					}
					m.PC = code[pc].tgt
					continue loop

				// Straight unless they hand over: a host call and a fused
				// site stay inside their run on the path nearly every call
				// takes, and take back the rest of the run (unwind) before
				// they run Go or hand over to the unfused slots.

				case uCALLH:
					h := &m.hosts[u.tgt]
					if h.Fn != nil && h.inert() {
						// A declared inert call runs no Go of the library's, so
						// there is nothing for the seams below to find.
						m.Cycles += h.Cycles
						m.callInert(h)
						if !h.PreserveRegs {
							m.PC = pc
							m.scrambleExceptResults()
							pc = m.PC
						}
						break
					}
					m.unwind(u, pc)
					if h.Fn == nil {
						m.fault(TrapIllegal, "unbound host function %q", img.HostFns[u.tgt])
						return
					}
					m.Cycles += h.Cycles
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
					// Site superinstruction (site.go): the not-triggered path
					// inside the run, on to the site's exit — here when the
					// next site repeats the site's writes, so it makes none;
					// in site when it writes — or the head store and then the
					// unfused slots. The run's head charged the site's 16
					// instructions with their cycles but the host's latency.
					if h, sp := m.siteHost, m.Regs[vx.SP]; h != nil && *h.Inert.Count != *h.Inert.Event && u.cond != 0 &&
						deadline-m.InstrCount+int64(u.rem)-1 >= int64(u.cond) &&
						sp >= uint64(u.imm)+8+siteSaveBytes && sp <= uint64(len(m.Mem))-8-siteMaxOff(u) {
						*h.Inert.Count++
						m.Cycles += h.Cycles
						pc = u.tgt - 1 // the run goes on at the exit, behind pc++
						break
					}
					m.PC = pc
					if !m.site() {
						if m.Halted {
							return
						}
						continue loop
					}
					pc = code[m.PC].tgt - 1

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

// unwind takes back, when the uop at pc traps, halts or hands over, what
// its run's head charged for the uops behind it, and points PC behind the
// instruction, as Step leaves it.
func (m *Machine) unwind(u *uop, pc int32) {
	m.InstrCount -= int64(u.rem) - 1
	m.Cycles -= int64(u.remCy) - int64(u.cost)
	m.PC = pc + 1
}

// site runs the fused site at PC on the paths the uSITE case leaves to it
// (site.go). On an inert call with the slot and the save area in bounds it
// makes the head store and the saves and reports true: the run goes on at
// the exit. Otherwise it takes back the rest of the run (unwind), makes the
// head store — or traps on it — and reports false, handing over to the
// unfused slots behind the head.
func (m *Machine) site() bool {
	pc := m.PC
	u := &m.Img.code[pc]
	h, sp, abs := m.siteHost, m.Regs[vx.SP], uint64(u.imm)
	if h == nil || *h.Inert.Count == *h.Inert.Event || abs < DefaultGlobalBase || abs > uint64(len(m.Mem))-8 ||
		sp < DefaultGlobalBase+siteSaveBytes || sp > uint64(len(m.Mem)) {
		m.unwind(u, pc)
		m.store64(abs, sp)
		return false
	}
	m.markDirty(abs)
	binary.LittleEndian.PutUint64(m.Mem[abs:], sp)
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
	if abs < sp && abs+8 > sp-siteSaveBytes {
		m.Regs[vx.SP] = binary.LittleEndian.Uint64(m.Mem[abs:])
	}
	*h.Inert.Count++
	m.Cycles += h.Cycles
	return true
}

// storeOut, pushOut and execOut are runFast's calls out of line — store64,
// push, execOp — for the uop at PC, where runFast parks its pc across the
// call. Each reports whether the uop completed; one that faulted or halted
// has taken back its run (unwind).
func (m *Machine) storeOut(addr, v uint64) bool {
	if m.store64(addr, v) {
		return true
	}
	m.unwind(&m.Img.code[m.PC], m.PC)
	return false
}

func (m *Machine) pushOut(v uint64) bool {
	if m.push(v) {
		return true
	}
	m.unwind(&m.Img.code[m.PC], m.PC)
	return false
}

func (m *Machine) execOut() bool {
	pc := m.PC
	m.execOp(pc, &m.Img.Instrs[pc])
	if m.Halted {
		m.unwind(&m.Img.code[pc], pc)
		return false
	}
	return true
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

// condTable[c] has bit f set when condition c holds for FLAGS f: Cond.Eval
// reads the four flag bits only, and a condition past the last is false.
var condTable = func() (t [256]uint16) {
	for c := range vx.NumConds {
		for f := range uint64(16) {
			if c.Eval(f) {
				t[c] |= 1 << f
			}
		}
	}
	return t
}()

// condHolds is vx.Cond(c).Eval(flags) for runFast, without a call: Eval's
// switch is past the inliner's budget, and a call in a case keeps the
// loop's pc on the stack.
func condHolds(c uint8, flags uint64) bool { return condTable[c]>>(flags&15)&1 != 0 }

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
