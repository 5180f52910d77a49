package codegen

import (
	"fmt"

	"repro/internal/mir"
	"repro/internal/vx"
)

// rewriter applies a register allocation to a function: virtual registers
// become physical registers or BP-relative spill slots, and the VENTRY/VCALL
// pseudo-instructions expand into real ABI moves around CALLQ.
type rewriter struct {
	f          *mir.Fn
	alloc      *allocation
	allocaSize int32
}

// slotOff returns the BP-relative offset (positive magnitude) of spill slot i.
func (rw *rewriter) slotOff(slot int) int32 {
	return rw.allocaSize + int32(8*(slot+1))
}

// locReg returns the physical register of a vreg, or NoReg if spilled.
func (rw *rewriter) locReg(v int) (vx.Reg, int32) {
	iv := rw.alloc.loc[v]
	if iv == nil {
		// A vreg with no interval is never read or written along any path
		// that matters; give it a scratch register so the instruction stays
		// well-formed.
		return scratchGPR[1], -1
	}
	if iv.reg != vx.NoReg {
		return iv.reg, -1
	}
	return vx.NoReg, rw.slotOff(iv.slot)
}

func (rw *rewriter) classOf(v int) mir.RegClass {
	idx := v - mir.VRegBase
	if idx >= 0 && idx < len(rw.f.VRegClasses) {
		return rw.f.VRegClasses[idx]
	}
	return mir.ClassInt
}

// run rewrites every block.
func (rw *rewriter) run() error {
	for _, b := range rw.f.Blocks {
		out := make([]*mir.Instr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			var err error
			switch in.Op {
			case vx.VENTRY:
				out, err = rw.expandEntry(out, in)
			case vx.VCALL:
				out, err = rw.expandCall(out, in)
			default:
				out, err = rw.rewriteInstr(out, in)
			}
			if err != nil {
				return fmt.Errorf("%s: %v: %w", rw.f.Name, in, err)
			}
		}
		b.Instrs = out
	}
	return nil
}

// abiArgRegs assigns ABI registers to a pseudo's vreg list in declaration
// order, integers and floats counted separately.
func (rw *rewriter) abiArgRegs(regs []int) ([]vx.Reg, error) {
	out := make([]vx.Reg, len(regs))
	ni, nf := 0, 0
	for i, v := range regs {
		if rw.classOf(v) == mir.ClassFP {
			if nf >= len(vx.FPArgRegs) {
				return nil, fmt.Errorf("too many FP args")
			}
			out[i] = vx.FPArgRegs[nf]
			nf++
		} else {
			if ni >= len(vx.IntArgRegs) {
				return nil, fmt.Errorf("too many int args")
			}
			out[i] = vx.IntArgRegs[ni]
			ni++
		}
	}
	return out, nil
}

// physMove is a pending move in a physical-register parallel copy. Exactly
// one of srcReg / srcMem / dstMem forms is used per side.
type physMove struct {
	fp     bool
	dstReg vx.Reg
	dstMem *mir.Operand
	srcReg vx.Reg
	srcMem *mir.Operand
}

// emitParallel orders physical moves so no source is clobbered before it is
// read, breaking register cycles with the scratch registers.
func emitParallel(out []*mir.Instr, moves []physMove) []*mir.Instr {
	movOp := func(fp bool) vx.Op {
		if fp {
			return vx.MOVSD
		}
		return vx.MOVQ
	}
	opnd := func(reg vx.Reg, mem *mir.Operand) mir.Operand {
		if mem != nil {
			return *mem
		}
		return mir.PReg(reg)
	}
	// Memory-destination moves first: they only read sources.
	pending := moves[:0:0]
	for _, m := range moves {
		if m.dstMem != nil {
			out = append(out, &mir.Instr{Op: movOp(m.fp), A: *m.dstMem, B: opnd(m.srcReg, m.srcMem)})
		} else {
			pending = append(pending, m)
		}
	}
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); i++ {
			m := pending[i]
			if m.srcMem == nil && m.srcReg == m.dstReg {
				pending = append(pending[:i], pending[i+1:]...)
				i--
				progress = true
				continue
			}
			blocked := false
			for j, o := range pending {
				if j != i && o.srcMem == nil && o.srcReg == m.dstReg {
					blocked = true
					break
				}
			}
			if !blocked {
				out = append(out, &mir.Instr{Op: movOp(m.fp), A: mir.PReg(m.dstReg), B: opnd(m.srcReg, m.srcMem)})
				pending = append(pending[:i], pending[i+1:]...)
				i--
				progress = true
			}
		}
		if !progress {
			// Cycle among register moves: stash one destination in scratch.
			m := pending[0]
			sc := scratchGPR[0]
			if m.fp {
				sc = scratchFPR[0]
			}
			out = append(out, &mir.Instr{Op: movOp(m.fp), A: mir.PReg(sc), B: mir.PReg(m.dstReg)})
			for j := range pending {
				if pending[j].srcMem == nil && pending[j].srcReg == m.dstReg {
					pending[j].srcReg = sc
				}
			}
		}
	}
	return out
}

// expandEntry lowers VENTRY: ABI argument registers flow to the parameters'
// assigned locations.
func (rw *rewriter) expandEntry(out []*mir.Instr, in *mir.Instr) ([]*mir.Instr, error) {
	abi, err := rw.abiArgRegs(in.Regs)
	if err != nil {
		return nil, err
	}
	var moves []physMove
	for i, v := range in.Regs {
		fp := rw.classOf(v) == mir.ClassFP
		r, off := rw.locReg(v)
		if r != vx.NoReg {
			moves = append(moves, physMove{fp: fp, dstReg: r, srcReg: abi[i]})
		} else {
			mem := mir.Mem(int(vx.BP), -off)
			moves = append(moves, physMove{fp: fp, dstMem: &mem, srcReg: abi[i]})
		}
	}
	return emitParallel(out, moves), nil
}

// expandCall lowers VCALL: argument moves, CALLQ, then the result move.
func (rw *rewriter) expandCall(out []*mir.Instr, in *mir.Instr) ([]*mir.Instr, error) {
	abi, err := rw.abiArgRegs(in.Regs)
	if err != nil {
		return nil, err
	}
	var moves []physMove
	for i, v := range in.Regs {
		fp := rw.classOf(v) == mir.ClassFP
		r, off := rw.locReg(v)
		if r != vx.NoReg {
			moves = append(moves, physMove{fp: fp, dstReg: abi[i], srcReg: r})
		} else {
			mem := mir.Mem(int(vx.BP), -off)
			moves = append(moves, physMove{fp: fp, dstReg: abi[i], srcMem: &mem})
		}
	}
	out = emitParallel(out, moves)
	out = append(out, &mir.Instr{
		Op: vx.CALLQ, A: in.A,
		NIntArgs: in.NIntArgs, NFPArgs: in.NFPArgs,
	})
	if in.CallRes >= 0 {
		fp := rw.classOf(in.CallRes) == mir.ClassFP
		retReg := vx.IntRet
		op := vx.MOVQ
		if fp {
			retReg = vx.FPRet
			op = vx.MOVSD
		}
		r, off := rw.locReg(in.CallRes)
		if r != vx.NoReg {
			if r != retReg {
				out = append(out, &mir.Instr{Op: op, A: mir.PReg(r), B: mir.PReg(retReg)})
			}
		} else {
			out = append(out, &mir.Instr{Op: op, A: mir.Mem(int(vx.BP), -off), B: mir.PReg(retReg)})
		}
	}
	return out, nil
}

// rewriteInstr patches one ordinary instruction, inserting spill loads and
// stores through the reserved scratch registers. The VM supports at most one
// memory operand per instruction, so a spilled destination becomes a memory
// operand only when the source side holds no memory operand; otherwise the
// value detours through a scratch register.
func (rw *rewriter) rewriteInstr(out []*mir.Instr, in *mir.Instr) ([]*mir.Instr, error) {
	ni := *in // copy; operand fields are values

	usedR8 := false
	memCollapsed := false

	// 1. Patch memory-operand base/index registers.
	patchMem := func(o *mir.Operand) {
		if o.Kind != mir.KindMem {
			return
		}
		if o.Base >= mir.VRegBase {
			r, off := rw.locReg(o.Base)
			if r == vx.NoReg {
				out = append(out, &mir.Instr{Op: vx.MOVQ, A: mir.PReg(scratchGPR[0]), B: mir.Mem(int(vx.BP), -off)})
				o.Base = int(scratchGPR[0])
			} else {
				o.Base = int(r)
			}
		}
		if o.Index >= mir.VRegBase {
			r, off := rw.locReg(o.Index)
			if r == vx.NoReg {
				out = append(out, &mir.Instr{Op: vx.MOVQ, A: mir.PReg(scratchGPR[1]), B: mir.Mem(int(vx.BP), -off)})
				o.Index = int(scratchGPR[1])
				usedR8 = true
			} else {
				o.Index = int(r)
			}
		}
	}
	patchMem(&ni.A)
	patchMem(&ni.B)

	// collapseMem folds the instruction's memory operand into R7 so that R8
	// becomes available for another reload.
	collapseMem := func() {
		if memCollapsed {
			return
		}
		var o *mir.Operand
		if ni.A.Kind == mir.KindMem {
			o = &ni.A
		} else if ni.B.Kind == mir.KindMem {
			o = &ni.B
		} else {
			return
		}
		out = append(out, &mir.Instr{Op: vx.LEAQ, A: mir.PReg(scratchGPR[0]), B: *o})
		*o = mir.Mem(int(scratchGPR[0]), 0)
		usedR8 = false
		memCollapsed = true
	}

	var post []*mir.Instr
	info := ni.Op.Info()

	// 2. Spilled A (destination / first operand).
	if ni.A.Kind == mir.KindReg && ni.A.Reg >= mir.VRegBase {
		r, off := rw.locReg(ni.A.Reg)
		switch {
		case r != vx.NoReg:
			ni.A = mir.PReg(r)
		case info.A.Has(mir.KindMem) && ni.B.Kind != mir.KindMem:
			// The spilled destination *is* the memory operand — the
			// "operations on memory operands" shape from the paper's
			// Listing 2c.
			ni.A = mir.Mem(int(vx.BP), -off)
		default:
			fp := rw.classOf(ni.A.Reg) == mir.ClassFP
			var sc vx.Reg
			var op vx.Op
			if fp {
				sc, op = scratchFPR[0], vx.MOVSD
			} else {
				sc, op = scratchGPR[1], vx.MOVQ
				if usedR8 {
					collapseMem()
					if usedR8 {
						return nil, fmt.Errorf("scratch pressure: A needs r8 already used")
					}
				}
				usedR8 = true
			}
			if info.AAccess.Reads() {
				out = append(out, &mir.Instr{Op: op, A: mir.PReg(sc), B: mir.Mem(int(vx.BP), -off)})
			}
			ni.A = mir.PReg(sc)
			if info.AAccess.Writes() {
				post = append(post, &mir.Instr{Op: op, A: mir.Mem(int(vx.BP), -off), B: mir.PReg(sc)})
			}
		}
	}

	// 3. Spilled B (source).
	if ni.B.Kind == mir.KindReg && ni.B.Reg >= mir.VRegBase {
		r, off := rw.locReg(ni.B.Reg)
		switch {
		case r != vx.NoReg:
			ni.B = mir.PReg(r)
		case ni.A.Kind != mir.KindMem && info.B.Has(mir.KindMem):
			ni.B = mir.Mem(int(vx.BP), -off)
		default:
			fp := rw.classOf(ni.B.Reg) == mir.ClassFP
			if fp {
				out = append(out, &mir.Instr{Op: vx.MOVSD, A: mir.PReg(scratchFPR[1]), B: mir.Mem(int(vx.BP), -off)})
				ni.B = mir.PReg(scratchFPR[1])
			} else {
				if usedR8 {
					collapseMem()
					if usedR8 {
						return nil, fmt.Errorf("scratch pressure: B needs r8 already used")
					}
				}
				out = append(out, &mir.Instr{Op: vx.MOVQ, A: mir.PReg(scratchGPR[1]), B: mir.Mem(int(vx.BP), -off)})
				ni.B = mir.PReg(scratchGPR[1])
				usedR8 = true
			}
		}
	}

	out = append(out, &ni)
	out = append(out, post...)
	return out, nil
}
