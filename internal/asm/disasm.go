package asm

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/vm"
	"repro/internal/vx"
)

// Disasm renders the image's instruction stream as readable assembly, with
// function labels, host-call names, and fault-injection annotations. It backs
// the vxdump tool and the codegen-interference example (the reproduction of
// the paper's Listing 2 comparison).
func Disasm(img *vm.Image) string {
	var b strings.Builder
	for pc := int32(0); int(pc) < len(img.Instrs); pc++ {
		for fi := range img.Funcs {
			if img.Funcs[fi].Entry == pc {
				fmt.Fprintf(&b, "%s:\n", img.Funcs[fi].Name)
			}
		}
		b.WriteString(DisasmInst(img, pc))
		b.WriteByte('\n')
	}
	return b.String()
}

// DisasmInst renders a single instruction.
func DisasmInst(img *vm.Image, pc int32) string {
	in := &img.Instrs[pc]
	var b strings.Builder
	fmt.Fprintf(&b, "%6d:\t", pc)
	switch in.Op {
	case vx.JCC:
		fmt.Fprintf(&b, "j%s\t%d", in.Cond, in.Target)
	case vx.SETCC:
		fmt.Fprintf(&b, "set%s\t%s", in.Cond, operandString(img, in, true))
	case vx.JMP:
		fmt.Fprintf(&b, "jmp\t%d", in.Target)
	case vx.CALLQ:
		if in.HostIdx >= 0 {
			fmt.Fprintf(&b, "callq\t%s@host", img.HostFns[in.HostIdx])
		} else {
			name := fmt.Sprintf("%d", in.Target)
			if f := img.FuncOf(in.Target); f != nil && f.Entry == in.Target {
				name = f.Name
			}
			fmt.Fprintf(&b, "callq\t%s", name)
		}
	default:
		b.WriteString(in.Op.String())
		if in.AKind != vm.OpNone {
			b.WriteByte('\t')
			b.WriteString(operandString(img, in, true))
			if in.BKind != vm.OpNone {
				b.WriteString(", ")
				b.WriteString(operandString(img, in, false))
			}
		}
	}
	if in.Instrumented {
		b.WriteString("\t; fi-instr")
	} else if in.SiteID > 0 {
		fmt.Fprintf(&b, "\t; site=%d class=%s", in.SiteID, in.Shape().Class())
	}
	return b.String()
}

func operandString(img *vm.Image, in *vm.Inst, isA bool) string {
	kind, reg := in.AKind, in.AReg
	if !isA {
		kind, reg = in.BKind, in.BReg
	}
	switch kind {
	case vm.OpReg:
		return reg.String()
	case vm.OpImm:
		return fmt.Sprintf("$%d", in.Imm)
	case vm.OpFImm:
		return fmt.Sprintf("$%g", math.Float64frombits(uint64(in.Imm)))
	case vm.OpMem:
		var b strings.Builder
		b.WriteByte('[')
		wrote := false
		if in.MemBase != vx.NoReg {
			b.WriteString(in.MemBase.String())
			wrote = true
		}
		if in.MemIndex != vx.NoReg {
			if wrote {
				b.WriteByte('+')
			}
			fmt.Fprintf(&b, "%s*%d", in.MemIndex, in.MemScale)
			wrote = true
		}
		if in.MemDisp != 0 || !wrote {
			if wrote {
				fmt.Fprintf(&b, "%+d", in.MemDisp)
			} else if name := globalNameFor(img, in.MemDisp); name != "" {
				b.WriteString(name)
			} else {
				fmt.Fprintf(&b, "%#x", in.MemDisp)
			}
		}
		b.WriteByte(']')
		return b.String()
	}
	return "_"
}

func globalNameFor(img *vm.Image, addr int64) string {
	// Min-reduce to the lexicographically smallest matching name so the
	// disassembly stays byte-stable even if two globals ever share a placed
	// address; the reduction is order-insensitive by construction.
	best := ""
	for name, a := range img.GlobalAddrs { //fi:ordered — min-reduction; order-free
		if a == addr && (best == "" || name < best) {
			best = name
		}
	}
	return best
}
