// Package asm assembles machine IR into executable VX64 images: it lays out
// the data segment, linearizes basic blocks, and resolves symbols (function
// calls, host imports, globals) and label targets. An instruction carries no
// fault-injection metadata: its class and output registers derive from its
// shape through the opcode table (vx.Ops), in the image as in MIR. It also
// provides a binary object encoding with a round-tripping loader and a
// disassembler.
package asm

import (
	"fmt"
	"math"

	"repro/internal/mir"
	"repro/internal/vm"
	"repro/internal/vx"
)

// Options control assembly.
type Options struct {
	MemSize int64 // 0 ⇒ vm.DefaultMemSize; at most MaxMemSize
}

// MaxMemSize is the largest address space an image may ask for (64 MiB,
// sixteen times the default), the bound vm.Image.Validate holds a decoded
// image to.
const MaxMemSize = 16 * vm.DefaultMemSize

// Assemble lowers a machine program to an executable image.
func Assemble(p *mir.Prog, opts Options) (*vm.Image, error) {
	img := &vm.Image{
		GlobalBase:  vm.DefaultGlobalBase,
		MemSize:     opts.MemSize,
		GlobalAddrs: make(map[string]int64),
		HostFns:     append([]string(nil), p.HostFns...),
	}
	if img.MemSize == 0 {
		img.MemSize = vm.DefaultMemSize
	}
	if img.MemSize > MaxMemSize {
		return nil, fmt.Errorf("asm: address space of %d bytes exceeds %d", img.MemSize, MaxMemSize)
	}

	// Pass 0: data segment layout.
	addr := img.GlobalBase
	for _, g := range p.Globals {
		align := g.Align
		if align == 0 {
			align = 8
		}
		addr = (addr + align - 1) &^ (align - 1)
		if _, dup := img.GlobalAddrs[g.Name]; dup {
			return nil, fmt.Errorf("asm: duplicate global %q", g.Name)
		}
		img.GlobalAddrs[g.Name] = addr
		addr += g.Size
	}
	img.GlobalEnd = addr
	if img.GlobalEnd > img.MemSize/2 {
		return nil, fmt.Errorf("asm: data segment (%d bytes) exceeds half of memory (%d)", img.GlobalEnd-img.GlobalBase, img.MemSize)
	}
	img.InitData = make([]byte, img.GlobalEnd-img.GlobalBase)
	for _, g := range p.Globals {
		off := img.GlobalAddrs[g.Name] - img.GlobalBase
		copy(img.InitData[off:], g.Init)
	}

	hostIdx := make(map[string]int32, len(p.HostFns))
	for i, h := range p.HostFns {
		hostIdx[h] = int32(i)
	}

	// Pass 1: linearize, recording per-function block→pc maps.
	type fixup struct {
		pc    int32
		fn    int
		block int
	}
	var (
		labelFixups []fixup
		blockPCs    = make([][]int32, len(p.Fns))
		fnByName    = make(map[string]int, len(p.Fns))
	)
	maxSite := int32(-1)
	for fi, f := range p.Fns {
		if _, dup := fnByName[f.Name]; dup {
			return nil, fmt.Errorf("asm: duplicate function %q", f.Name)
		}
		fnByName[f.Name] = fi
		entry := int32(len(img.Instrs))
		blockPCs[fi] = make([]int32, len(f.Blocks))
		for bi, b := range f.Blocks {
			blockPCs[fi][bi] = int32(len(img.Instrs))
			for _, mi := range b.Instrs {
				in, err := lower(mi, img, fi)
				if err != nil {
					return nil, fmt.Errorf("asm: %s: %v", f.Name, err)
				}
				pc := int32(len(img.Instrs))
				switch mi.Op {
				case vx.JMP, vx.JCC:
					labelFixups = append(labelFixups, fixup{pc, fi, mi.A.Target})
				case vx.CALLQ:
					if hi, ok := hostIdx[mi.A.Sym]; ok {
						in.HostIdx = hi
					}
				}
				if mi.SiteID > maxSite {
					maxSite = mi.SiteID
				}
				img.Instrs = append(img.Instrs, in)
			}
		}
		img.Funcs = append(img.Funcs, vm.FuncInfo{
			Name:  f.Name,
			Entry: entry,
			End:   int32(len(img.Instrs)),
		})
	}
	img.NumSites = maxSite + 1

	// Pass 2: resolve intra-function labels and inter-function calls.
	for _, fx := range labelFixups {
		in := &img.Instrs[fx.pc]
		if fx.block < 0 || fx.block >= len(blockPCs[fx.fn]) {
			return nil, fmt.Errorf("asm: branch to unknown block %d in %s", fx.block, p.Fns[fx.fn].Name)
		}
		in.Target = blockPCs[fx.fn][fx.block]
	}
	// Resolve non-host call targets by walking the program again in lockstep
	// with the emitted instruction stream.
	pc := int32(0)
	for _, f := range p.Fns {
		for _, b := range f.Blocks {
			for _, mi := range b.Instrs {
				if mi.Op == vx.CALLQ {
					if _, isHost := hostIdx[mi.A.Sym]; !isHost {
						callee, ok := fnByName[mi.A.Sym]
						if !ok {
							return nil, fmt.Errorf("asm: call to undefined function %q", mi.A.Sym)
						}
						img.Instrs[pc].Target = img.Funcs[callee].Entry
					}
				}
				pc++
			}
		}
	}

	entryFn := p.Entry
	if entryFn == "" {
		entryFn = "main"
	}
	efi, ok := fnByName[entryFn]
	if !ok {
		return nil, fmt.Errorf("asm: entry function %q not defined", entryFn)
	}
	img.EntryPC = img.Funcs[efi].Entry
	return img, nil
}

// lower flattens one MIR instruction into the decoded VM form.
func lower(mi *mir.Instr, img *vm.Image, fnIdx int) (vm.Inst, error) {
	in := vm.Inst{
		Op:           mi.Op,
		Cond:         mi.Cond,
		HostIdx:      -1,
		SiteID:       mi.SiteID,
		FnIdx:        int32(fnIdx),
		Instrumented: mi.Instrumented,
		NIntArgs:     uint8(mi.NIntArgs),
		NFPArgs:      uint8(mi.NFPArgs),
		MemBase:      vx.NoReg,
		MemIndex:     vx.NoReg,
	}
	setOpnd := func(o mir.Operand, kind *vm.OpndKind, reg *vx.Reg) error {
		switch o.Kind {
		case mir.KindNone:
			*kind = vm.OpNone
		case mir.KindReg:
			if o.Reg >= mir.VRegBase {
				return fmt.Errorf("virtual register v%d survived to assembly", o.Reg-mir.VRegBase)
			}
			*kind = vm.OpReg
			*reg = vx.Reg(o.Reg)
		case mir.KindImm:
			*kind = vm.OpImm
			in.Imm = o.Imm
		case mir.KindFImm:
			*kind = vm.OpFImm
			in.Imm = int64(f64bits(o.F))
		case mir.KindMem:
			*kind = vm.OpMem
			if o.Sym != "" {
				a, ok := img.GlobalAddrs[o.Sym]
				if !ok {
					return fmt.Errorf("unknown global %q", o.Sym)
				}
				in.MemDisp = a + int64(o.Disp)
			} else {
				in.MemDisp = int64(o.Disp)
				if o.Base >= 0 {
					if o.Base >= mir.VRegBase {
						return fmt.Errorf("virtual base register survived to assembly")
					}
					in.MemBase = vx.Reg(o.Base)
				}
			}
			if o.Index >= 0 {
				if o.Index >= mir.VRegBase {
					return fmt.Errorf("virtual index register survived to assembly")
				}
				in.MemIndex = vx.Reg(o.Index)
				in.MemScale = o.Scale
			}
		case mir.KindSym:
			// CALLQ target (resolved by the caller) or LEAQ of a global.
			if mi.Op == vx.LEAQ {
				a, ok := img.GlobalAddrs[o.Sym]
				if !ok {
					return fmt.Errorf("unknown global %q", o.Sym)
				}
				*kind = vm.OpMem
				in.MemDisp = a
			}
		case mir.KindLabel:
			// Target filled by fixups.
		}
		return nil
	}
	if mi.Op == vx.VCALL || mi.Op == vx.VENTRY {
		return in, fmt.Errorf("pseudo-instruction %s reached assembly", mi.Op)
	}
	if mi.A.Kind == mir.KindMem && mi.B.Kind == mir.KindMem {
		return in, fmt.Errorf("two memory operands in %v", mi)
	}
	if err := setOpnd(mi.A, &in.AKind, &in.AReg); err != nil {
		return in, err
	}
	if err := setOpnd(mi.B, &in.BKind, &in.BReg); err != nil {
		return in, err
	}
	return in, nil
}

func f64bits(f float64) uint64 {
	return math.Float64bits(f)
}
