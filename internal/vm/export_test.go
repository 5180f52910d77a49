package vm

import "repro/internal/vx"

// Test-only access to the site superinstruction's internals (site.go), the
// run counts and the dirty-page bitmap for the external test package, which
// needs real REFINE, LLFI and PINFI images and therefore cannot live inside
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
	for _, h := range img.sites {
		img.unfuseSite(h)
	}
	img.runs()
}

// SiteHeads returns the head and post PCs of every fused site, in stream
// order of the heads.
func SiteHeads(img *Image) (heads, posts []int32) {
	img.ensure()
	for pc := range img.code {
		if u := &img.code[pc]; u.kind == uSITE {
			heads = append(heads, int32(pc))
			posts = append(posts, u.tgt-sitePostLen)
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

// Elided is one fused site that may skip its writes (site.go, elide): the
// distance to the deadline it needs and the largest SP displacement on its
// paths.
type Elided struct {
	Head, Post int32
	Abs        uint64
	Need       int64
	MaxOff     uint64
}

// ElidedSites returns every fused site of img that may skip its writes, in
// stream order of the heads.
func ElidedSites(img *Image) []Elided {
	img.ensure()
	var out []Elided
	for pc := range img.code {
		if u := &img.code[pc]; u.kind == uSITE {
			if u.cond > 0 {
				out = append(out, Elided{int32(pc), u.tgt - sitePostLen, uint64(u.imm), int64(u.cond), siteMaxOff(u)})
			}
		}
	}
	return out
}

// StaleCount returns the first slot of img whose predecoded uop — run counts
// included — differs from what a full count pass over the stream gives, or
// -1. It leaves the stream as it found it.
func StaleCount(img *Image) int32 {
	img.ensure()
	kept := append([]uop(nil), img.code...)
	img.runs()
	defer copy(img.code, kept)
	for pc := range kept {
		if kept[pc] != img.code[pc] {
			return int32(pc)
		}
	}
	return -1
}

// CodeDiff returns the first slot whose predecoded uop — kind, operands,
// cost and run counts — differs between a and b, or -1 when the two streams
// are equal.
func CodeDiff(a, b *Image) int32 {
	a.ensure()
	b.ensure()
	for pc := range max(len(a.code), len(b.code)) {
		if pc >= len(a.code) || pc >= len(b.code) || a.code[pc] != b.code[pc] {
			return int32(pc)
		}
	}
	return -1
}

// DeclaresInert reports whether m's binding of host index i declares inert
// calls (HostFn.Inert).
func DeclaresInert(m *Machine, i int32) bool {
	h := &m.hosts[i]
	return h.Fn != nil && h.Inert.Count != nil
}

// SlotClass is how runFast treats a predecoded slot (predecode.go, runs).
type SlotClass uint8

const (
	Straight   SlotClass = iota // continues into the run of the slot behind it (a site: of its exit)
	Terminator                  // ends its run, counted in it, writing PC
	Breaker                     // ends its run, counted in it (but uEND, 0)
)

// Slot reports how runFast treats code[pc] and the run counts stored
// there, and whether the slot runs through the reference decoder: a
// uGeneric slot, straight, or uCUT, the breaker where runs cut a run whose
// counts overflow.
func Slot(img *Image, pc int32) (class SlotClass, rem, remCy int, generic bool) {
	img.ensure()
	u := &img.code[pc]
	switch u.kind {
	case uCUT, uEND:
		class = Breaker
	case uJMP, uJCC, uCALL, uRET:
		class = Terminator
	}
	return class, int(u.rem), int(u.remCy), u.kind == uGeneric || u.kind == uCUT
}
