package codegen

import (
	"repro/internal/mir"
	"repro/internal/vx"
)

// regRefs reports the virtual registers read (uses) and written (defs) by a
// MIR instruction: its operands' registers, by the op's access to A (vx.Ops),
// and the pseudos' register lists.
func regRefs(in *mir.Instr, uses, defs *[]int) {
	addUse := func(r int) {
		if r >= mir.VRegBase {
			*uses = append(*uses, r)
		}
	}
	addDef := func(r int) {
		if r >= mir.VRegBase {
			*defs = append(*defs, r)
		}
	}
	memRefs := func(o mir.Operand) {
		if o.Kind == mir.KindMem {
			if o.Base >= 0 {
				addUse(o.Base)
			}
			if o.Index >= 0 {
				addUse(o.Index)
			}
		}
	}
	memRefs(in.A)
	memRefs(in.B)
	if in.B.Kind == mir.KindReg {
		addUse(in.B.Reg)
	}

	switch in.Op {
	case vx.VCALL:
		for _, r := range in.Regs {
			addUse(r)
		}
		if in.CallRes >= 0 {
			addDef(in.CallRes)
		}
	case vx.VENTRY:
		for _, r := range in.Regs {
			addDef(r)
		}
	default:
		if a := in.Op.Info().AAccess; in.A.Kind == mir.KindReg {
			if a.Reads() {
				addUse(in.A.Reg)
			}
			if a.Writes() {
				addDef(in.A.Reg)
			}
		}
	}
}

// liveSets computes per-block live-in/live-out over virtual registers with a
// standard backward dataflow iteration.
func liveSets(f *mir.Fn) (liveIn, liveOut []map[int]bool) {
	n := len(f.Blocks)
	liveIn = make([]map[int]bool, n)
	liveOut = make([]map[int]bool, n)
	gen := make([]map[int]bool, n)  // upward-exposed uses
	kill := make([]map[int]bool, n) // defs
	for i, b := range f.Blocks {
		g, k := map[int]bool{}, map[int]bool{}
		var uses, defs []int
		for _, in := range b.Instrs {
			uses, defs = uses[:0], defs[:0]
			regRefs(in, &uses, &defs)
			for _, u := range uses {
				if !k[u] {
					g[u] = true
				}
			}
			for _, d := range defs {
				k[d] = true
			}
		}
		gen[i], kill[i] = g, k
		liveIn[i], liveOut[i] = map[int]bool{}, map[int]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := liveOut[i]
			for _, s := range b.Succs {
				for v := range liveIn[s] {
					if !out[v] {
						out[v] = true
						changed = true
					}
				}
			}
			in := liveIn[i]
			for v := range gen[i] {
				if !in[v] {
					in[v] = true
					changed = true
				}
			}
			for v := range out {
				if !kill[i][v] && !in[v] {
					in[v] = true
					changed = true
				}
			}
		}
	}
	return liveIn, liveOut
}
