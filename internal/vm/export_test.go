package vm

import "repro/internal/vx"

// Test-only access to the site and call superinstructions' internals
// (site.go) and the dirty-page bitmap for the external test package, which
// needs real REFINE and LLFI images and therefore cannot live inside
// package vm.

// DirtyPages returns a copy of m's dirty-page bitmap.
func DirtyPages(m *Machine) []uint64 { return append([]uint64(nil), m.dirty...) }

// FusedSites counts the heads currently fused in img.
func FusedSites(img *Image) int {
	heads, _ := SiteHeads(img)
	return len(heads)
}

// UnfuseSites demotes every fused head of img to its plain store, so a test
// can run the same image with and without the superinstruction.
func UnfuseSites(img *Image) {
	img.ensure()
	for i := range img.sites {
		img.unfuseSite(img.sites[i].head)
	}
}

// SiteHeads returns the head and post PCs of every fused site, in stream
// order of the heads.
func SiteHeads(img *Image) (heads, posts []int32) {
	img.ensure()
	for pc := range img.code {
		if u := &img.code[pc]; u.kind == uSITE {
			heads = append(heads, int32(pc))
			posts = append(posts, img.sites[u.tgt].post)
		}
	}
	return heads, posts
}

// SiteShape builds the smallest image holding one site: the 10 PreFI
// instructions, a HALT where SetupFI would start, the 6 PostFI instructions
// and a final HALT, importing one host function, "sel". The caller's edit
// turns it into a near miss.
func SiteShape(edit func(ins []Inst)) *Image {
	const abs = DefaultGlobalBase + 64
	reg := func(op vx.Op, r vx.Reg) Inst { return Inst{Op: op, AKind: OpReg, AReg: r} }
	mem := Inst{MemBase: vx.NoReg, MemIndex: vx.NoReg, MemDisp: abs}
	spSave, spLoad := mem, mem
	spSave.Op, spSave.AKind, spSave.BKind, spSave.BReg = vx.MOVQ, OpMem, OpReg, vx.SP
	spLoad.Op, spLoad.AKind, spLoad.AReg, spLoad.BKind = vx.MOVQ, OpReg, vx.SP, OpMem
	ins := []Inst{
		spSave,
		{Op: vx.PUSHF},
		reg(vx.PUSHQ, vx.R0), reg(vx.PUSHQ, vx.R1), reg(vx.PUSHQ, vx.R2), reg(vx.PUSHQ, vx.R3),
		{Op: vx.MOVQ, AKind: OpReg, AReg: vx.R1, BKind: OpImm, Imm: 1},
		{Op: vx.CALLQ, HostIdx: 0},
		{Op: vx.TESTQ, AKind: OpReg, AReg: vx.R0, BKind: OpReg, BReg: vx.R0},
		{Op: vx.JCC, Cond: vx.CondE, Target: 11},
		{Op: vx.HALT},
		reg(vx.POPQ, vx.R3), reg(vx.POPQ, vx.R2), reg(vx.POPQ, vx.R1), reg(vx.POPQ, vx.R0),
		{Op: vx.POPF},
		spLoad,
		{Op: vx.HALT},
	}
	for i := range ins {
		ins[i].Instrumented = true
		if ins[i].Op != vx.CALLQ {
			ins[i].HostIdx = -1
		}
	}
	if edit != nil {
		edit(ins)
	}
	return &Image{
		Instrs:     ins,
		Funcs:      []FuncInfo{{Name: "main", Entry: 0, End: int32(len(ins))}},
		HostFns:    []string{"sel"},
		GlobalBase: DefaultGlobalBase,
		GlobalEnd:  DefaultGlobalBase + 128,
		MemSize:    1 << 16,
	}
}

// CallHeads returns the head PC of every fused call, in stream order.
func CallHeads(img *Image) []int32 {
	img.ensure()
	var heads []int32
	for pc := range img.code {
		if img.code[pc].kind == uCALLSITE {
			heads = append(heads, int32(pc))
		}
	}
	return heads
}

// UnfuseCalls demotes every fused call head of img to its plain move, so a
// test can run the same image with and without the superinstruction.
func UnfuseCalls(img *Image) {
	img.ensure()
	for i := range img.calls {
		img.unfuseCallsAround(img.calls[i].head)
	}
}

// CallShape builds the smallest image holding one call: LLFI's i64 call
// shape (MOVQ R1 ← 7, MOVQ R2 ← R3, CALLQ, MOVQ R9 ← R0) or, with f64, its
// f64 one (MOVQ R0 ← 7, MOVQ R1 ← R0, CALLQ, MOVSD F8 ← F0), then a HALT,
// importing one host function, "inj". The caller's edit turns it into a near
// miss.
func CallShape(f64 bool, edit func(ins []Inst)) *Image {
	rr := func(op vx.Op, a, b vx.Reg) Inst {
		return Inst{Op: op, AKind: OpReg, AReg: a, BKind: OpReg, BReg: b, HostIdx: -1}
	}
	ins := []Inst{
		{Op: vx.MOVQ, AKind: OpReg, AReg: vx.R1, BKind: OpImm, Imm: 7, HostIdx: -1},
		rr(vx.MOVQ, vx.R2, vx.R3),
		{Op: vx.CALLQ, HostIdx: 0},
		rr(vx.MOVQ, vx.R9, vx.R0),
		{Op: vx.HALT, HostIdx: -1},
	}
	if f64 {
		ins[0].AReg = vx.R0
		ins[1] = rr(vx.MOVQ, vx.R1, vx.R0)
		ins[3] = rr(vx.MOVSD, vx.F8, vx.F0)
	}
	if edit != nil {
		edit(ins)
	}
	return &Image{
		Instrs:     ins,
		Funcs:      []FuncInfo{{Name: "main", Entry: 0, End: int32(len(ins))}},
		HostFns:    []string{"inj"},
		GlobalBase: DefaultGlobalBase,
		GlobalEnd:  DefaultGlobalBase + 128,
		MemSize:    1 << 16,
	}
}
