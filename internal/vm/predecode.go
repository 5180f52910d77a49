package vm

import (
	"math"
	"sort"
	"sync"

	"repro/internal/vx"
)

// This file implements the image predecode pass: it lowers the decoded
// instruction stream into a parallel array of compact micro-ops (uops)
// specialized by operand shape, so the inner dispatch loop in run.go pays
// neither the operand-kind switches of readA/readB/writeA nor the
// CycleCost lookup on the hot path. It also matches REFINE's
// instrumentation sequence (site.go), cuts the stream into straight-line
// runs the loop charges once (runs, below), and builds the host-symbol and
// function indexes used by Imports/BindHost/FuncOf.

type predecodeOnce = sync.Once

// uopKind enumerates the specialized micro-ops. Anything not covered by a
// dedicated kind falls back to uGeneric, which dispatches through the same
// execOp switch Step uses, so the long tail keeps reference semantics; every
// branch, call and return has a kind, so a uGeneric slot only falls through,
// traps or halts, and stays inside its run. So do a host call and a fused
// site, unless they hand over (runs). A shape earns a kind only if some
// workload gives it at least 0.01 % of dispatches and the kind measurably
// beats uGeneric (README.md, "Which uops earn a kind").
type uopKind uint8

const (
	uGeneric uopKind = iota

	// Data movement.
	uMOVrr  // reg ← reg (MOVQ/MOVSD/MOVQ2SD/MOVSD2Q)
	uMOVri  // reg ← imm bits
	uLOAD   // reg ← [mem]
	uSTORE  // [mem] ← reg
	uSTOREi // [mem] ← imm (displacement in tgt)
	uLEA    // reg ← effective address

	// Integer ALU, reg ← reg op {reg, imm}; sets ZF/SF.
	uADDrr
	uADDri
	uSUBrr
	uSUBri
	uIMULrr
	uIMULri
	uANDri
	uORrr
	uSHLri
	uSARri
	uIDIVrr
	uIDIVri
	uIREMrr
	uIREMri
	uNEG
	uNOT

	// FP ALU, reg ← reg op {reg, imm bits}; no flags.
	uFADDrr
	uFADDri
	uFSUBrr
	uFSUBri
	uFMULrr
	uFMULri
	uFDIVrr
	uFDIVri
	uSQRTrr
	uCVTSI2SDrr
	uCVTTSD2SIrr
	uUCOMISDrr

	// Compares and branches.
	uCMPrr
	uCMPri
	uTESTrr
	uJMP
	uJCC
	uSETCC

	// Stack and calls.
	uPUSHr
	uPOPr
	uPUSHF
	uPOPF
	uRET
	uCALL  // direct call, target in tgt
	uCALLH // host call, host index in tgt

	uNOP

	// The site superinstruction (site.go): a REFINE site's head uSTORE,
	// the rest of the site in its operand bytes.
	uSITE

	// uCUT is where runs cuts a run whose counts would overflow 16 bits: the
	// reference path, like uGeneric, but ending its run.
	uCUT

	// uEND is the exit sentinel at code[len(Instrs)]: the slot a return
	// through the sentinel, or a fall off the last instruction, lands on.
	uEND
)

// uop is one predecoded micro-op. Field use depends on kind:
//
//	a           destination / register operand
//	b, c, scale memory base, index (NoReg ⇒ absent) and scale
//	imm         immediate or memory displacement
//	tgt         branch target, host index, uSTOREi displacement, or a site's exit
//	cond        condition code for JCC / SETCC (a site's need)
//	cost        cycle cost (op cost + memory surcharge)
//	rem, remCy  instructions and cycles from this slot to the end of its run
//	            (runs); 0 for the sentinel
//
// The two counts fill what was padding: a uop stays 24 bytes.
type uop struct {
	kind  uopKind
	a     uint8
	b     uint8
	c     uint8
	scale uint8
	cond  uint8
	cost  uint8
	imm   int64
	tgt   int32
	rem   uint16
	remCy uint16
}

// ensure builds the predecoded state exactly once. Images are immutable
// after assembly/loading (BuildBinary only flips FuncInfo.IsTarget, which
// no index depends on), so lazy one-shot construction is safe even with
// machines created concurrently.
func (img *Image) ensure() {
	img.once.Do(img.build)
}

func (img *Image) build() {
	img.hostIndex = make(map[string]int32, len(img.HostFns))
	for i, n := range img.HostFns {
		if _, dup := img.hostIndex[n]; !dup {
			img.hostIndex[n] = int32(i) // first wins, like the old linear scan
		}
	}

	img.funcOrder = make([]int32, len(img.Funcs))
	for i := range img.funcOrder {
		img.funcOrder[i] = int32(i)
	}
	sort.SliceStable(img.funcOrder, func(i, j int) bool {
		return img.Funcs[img.funcOrder[i]].Entry < img.Funcs[img.funcOrder[j]].Entry
	})

	img.code = make([]uop, len(img.Instrs)+1)
	for pc := range img.Instrs {
		img.code[pc] = predecode1(&img.Instrs[pc])
	}
	img.code[len(img.Instrs)] = uop{kind: uEND}
	// Site superinstructions (site.go), rewriting head slots only.
	img.siteHost = -1
	for pc := range img.Instrs {
		if exit, ok := img.matchSite(int32(pc)); ok {
			img.fuseSite(int32(pc), exit)
		}
	}
	// Sites whose writes the next site repeats (site.go): on the final
	// stream, which every walk reads whole.
	for _, h := range img.sites {
		img.elide(h)
	}
	img.runs()

	// SiteID → PC of the application instruction carrying it (first wins).
	for pc := range img.Instrs {
		in := &img.Instrs[pc]
		if in.Instrumented || in.SiteID < 0 {
			continue
		}
		for int(in.SiteID) >= len(img.sitePC) {
			img.sitePC = append(img.sitePC, -1)
		}
		if img.sitePC[in.SiteID] < 0 {
			img.sitePC[in.SiteID] = int32(pc)
		}
	}
}

// Clone returns a private copy of the image for injectors that mutate the
// instruction stream in place (opcode corruption): the instruction slice is
// deep-copied and the predecoded state left unbuilt, so Repredecode on the
// clone never touches the original and the clone regains the full
// share-nothing mutation license Repredecode's contract demands — on a
// site-free image: sites are fixed at build, and a clone of an image with
// sites matches them too, which Repredecode refuses. Read-only
// structure — function table, host symbol list, init data, global layout —
// is shared with the original; neither mutation nor predecoding writes it.
func (img *Image) Clone() *Image {
	return &Image{
		Instrs:      append([]Inst(nil), img.Instrs...),
		Funcs:       img.Funcs,
		EntryPC:     img.EntryPC,
		HostFns:     img.HostFns,
		InitData:    img.InitData,
		GlobalBase:  img.GlobalBase,
		GlobalEnd:   img.GlobalEnd,
		MemSize:     img.MemSize,
		GlobalAddrs: img.GlobalAddrs,
		NumSites:    img.NumSites,
	}
}

// Repredecode refreshes the predecoded state of pc after an in-place
// mutation of Instrs[pc] (the opcode-corruption ablation rewrites opcodes
// mid-run) and recounts the runs the slot can change: walking back from it
// while the counts change. Sites are fixed at build: Repredecode is for
// site-free images, and it panics on one that matched sites. Mutating an
// image forfeits its share-across-goroutines guarantee: callers must have
// exclusive use of the image for the whole mutate/run/restore window.
func (img *Image) Repredecode(pc int32) {
	img.ensure()
	if len(img.sites) > 0 {
		panic("vm: Repredecode: image has instrumentation sites, which are fixed at build")
	}
	img.code[pc] = predecode1(&img.Instrs[pc])
	// With no sites, a run continues only into the slot behind it, so the
	// first slot before pc whose counts stand ends the walk.
	for p := pc; p >= 0; p-- {
		u := &img.code[p]
		was := *u
		img.count(p)
		if p != pc && *u == was {
			break
		}
	}
}

// runs cuts the predecoded stream into straight-line runs and stores, in
// every uop, the architectural instructions (rem) and cycles (remCy) from
// its slot to the end of its run, in one backward pass. runFast charges a
// run once, at its first slot, and then dispatches its uops with no
// per-instruction accounting (run.go).
//
// A run ends at a terminator — uJMP, uJCC, uCALL, uRET — or at uCUT, the
// overflow cut, which is counted in the run it ends. Every other uop is
// straight and continues into the run of the slot behind it: uGeneric, and
// uCALLH, which goes on when its call is inert. A fused site (uSITE) is
// straight too, continuing at its exit: it counts its 16 instructions —
// their cycles but the host's latency, which the case adds — and the run
// from post+6, which lies behind it, so the backward pass has counted it
// already. A uop that traps or halts, a host call that enters Go and a site
// that hands over to its unfused slots take back the rest of their run's
// charge as they stop (unwind). The uEND sentinel ends a run before itself:
// it is no instruction, and its counts are 0. A run whose counts would not
// fit in 16 bits is cut at the slot where they overflow: the slot becomes
// uCUT, the reference path, which ends the run there — a site, its store
// (unfuseSite) and then, if that still overflows, the cut; no evaluation
// build comes near (its longest run is 147 instructions, 419 cycles). A
// uGeneric or uCUT slot's cost is its opcode's alone: its memory surcharges
// are charged as execOp runs it.
//
// It runs once at build (after elide) and in the tests' unfuse helpers;
// Repredecode, on a site-free image, recounts only what its slot changes.
func (img *Image) runs() {
	for pc := len(img.code) - 1; pc >= 0; pc-- {
		img.count(int32(pc))
	}
}

// count stores the run counts of code[pc] from those of the slot its run
// continues into, which must be counted already.
func (img *Image) count(pc int32) {
	code := img.code
	u := &code[pc]
	var rem, cy int
	switch u.kind {
	case uEND:
	case uJMP, uJCC, uCALL, uRET, uCUT:
		rem, cy = 1, int(u.cost)
	case uSITE:
		next := &code[u.tgt]
		rem, cy = sitePreLen+sitePostLen+int(next.rem), int(u.cost)+img.siteCycles(pc)+int(next.remCy)
		if rem > math.MaxUint16 || cy > math.MaxUint16 {
			img.unfuseSite(pc)
			img.count(pc)
			return
		}
	default:
		next := &code[pc+1] // in bounds: the last slot is the sentinel
		rem, cy = 1+int(next.rem), int(u.cost)+int(next.remCy)
		if rem > math.MaxUint16 || cy > math.MaxUint16 {
			*u = uop{kind: uCUT, cost: uint8(img.Instrs[pc].Op.CycleCost())}
			rem, cy = 1, int(u.cost)
		}
	}
	u.rem, u.remCy = uint16(rem), uint16(cy)
}

// intALUKinds and fpALUKinds map two-address ALU opcodes to their
// {reg/reg, reg/imm} uop kinds; uGeneric marks a shape too rare to earn one.
// XORQ and SHRQ have none and stay out of the table.
var intALUKinds = map[vx.Op][2]uopKind{
	vx.ADDQ: {uADDrr, uADDri}, vx.SUBQ: {uSUBrr, uSUBri},
	vx.IMULQ: {uIMULrr, uIMULri}, vx.ANDQ: {uGeneric, uANDri}, vx.ORQ: {uORrr, uGeneric},
	vx.SHLQ: {uGeneric, uSHLri}, vx.SARQ: {uGeneric, uSARri},
	vx.IDIVQ: {uIDIVrr, uIDIVri}, vx.IREMQ: {uIREMrr, uIREMri},
}

var fpALUKinds = map[vx.Op][2]uopKind{
	vx.ADDSD: {uFADDrr, uFADDri}, vx.SUBSD: {uFSUBrr, uFSUBri},
	vx.MULSD: {uFMULrr, uFMULri}, vx.DIVSD: {uFDIVrr, uFDIVri},
}

// predecode1 lowers one instruction. It only specializes shapes whose
// handler is exactly equivalent to execOp's; anything else stays uGeneric.
func predecode1(in *Inst) uop {
	u := uop{kind: uGeneric, cost: uint8(in.Op.CycleCost())}

	regA := in.AKind == OpReg
	immB := in.BKind == OpImm || in.BKind == OpFImm
	regB := in.BKind == OpReg
	memOK := func() bool {
		// The fast handlers support scale 0..255 and any displacement; the
		// assembler only emits 1/2/4/8 but stay defensive.
		return in.MemScale >= 0 && in.MemScale <= 255
	}
	setMem := func() {
		u.b = uint8(in.MemBase)
		u.c = uint8(in.MemIndex)
		u.scale = uint8(in.MemScale)
		u.imm = in.MemDisp
	}

	switch in.Op {
	case vx.NOP:
		u.kind = uNOP

	case vx.MOVQ, vx.MOVSD:
		switch {
		case regA && regB:
			u.kind, u.a, u.b = uMOVrr, uint8(in.AReg), uint8(in.BReg)
		case regA && immB:
			u.kind, u.a, u.imm = uMOVri, uint8(in.AReg), in.Imm
		case regA && in.BKind == OpMem && memOK():
			u.kind, u.a = uLOAD, uint8(in.AReg)
			setMem()
			u.cost += vx.MemExtraCycles
		case in.AKind == OpMem && regB && memOK():
			u.kind, u.a = uSTORE, uint8(in.BReg)
			setMem()
			u.cost += vx.MemExtraCycles
		case in.AKind == OpMem && immB && memOK() && int64(int32(in.MemDisp)) == in.MemDisp:
			u.kind, u.imm = uSTOREi, in.Imm
			u.b = uint8(in.MemBase)
			u.c = uint8(in.MemIndex)
			u.scale = uint8(in.MemScale)
			u.tgt = int32(in.MemDisp)
			u.cost += vx.MemExtraCycles
		}

	case vx.MOVQ2SD, vx.MOVSD2Q:
		u.kind, u.a, u.b = uMOVrr, uint8(in.AReg), uint8(in.BReg)

	case vx.LEAQ:
		if memOK() {
			u.kind, u.a = uLEA, uint8(in.AReg)
			setMem()
		}

	case vx.ADDQ, vx.SUBQ, vx.IMULQ, vx.ANDQ, vx.ORQ,
		vx.SHLQ, vx.SARQ, vx.IDIVQ, vx.IREMQ:
		if !regA {
			break
		}
		k := intALUKinds[in.Op]
		switch {
		case regB:
			u.kind, u.a, u.b = k[0], uint8(in.AReg), uint8(in.BReg)
		case in.BKind == OpImm:
			u.kind, u.a, u.imm = k[1], uint8(in.AReg), in.Imm
		}

	case vx.NEGQ:
		u.kind, u.a = uNEG, uint8(in.AReg)

	case vx.NOTQ:
		u.kind, u.a = uNOT, uint8(in.AReg)

	case vx.ADDSD, vx.SUBSD, vx.MULSD, vx.DIVSD:
		k := fpALUKinds[in.Op]
		switch {
		case regB:
			u.kind, u.a, u.b = k[0], uint8(in.AReg), uint8(in.BReg)
		case immB:
			u.kind, u.a, u.imm = k[1], uint8(in.AReg), in.Imm
		}

	case vx.SQRTSD:
		if regB {
			u.kind, u.a, u.b = uSQRTrr, uint8(in.AReg), uint8(in.BReg)
		}

	case vx.CVTSI2SD:
		if regB {
			u.kind, u.a, u.b = uCVTSI2SDrr, uint8(in.AReg), uint8(in.BReg)
		}

	case vx.CVTTSD2SI:
		if regB {
			u.kind, u.a, u.b = uCVTTSD2SIrr, uint8(in.AReg), uint8(in.BReg)
		}

	case vx.UCOMISD:
		if regB {
			u.kind, u.a, u.b = uUCOMISDrr, uint8(in.AReg), uint8(in.BReg)
		}

	case vx.CMPQ:
		switch {
		case regA && regB:
			u.kind, u.a, u.b = uCMPrr, uint8(in.AReg), uint8(in.BReg)
		case regA && in.BKind == OpImm:
			u.kind, u.a, u.imm = uCMPri, uint8(in.AReg), in.Imm
		}

	case vx.TESTQ:
		if regA && regB {
			u.kind, u.a, u.b = uTESTrr, uint8(in.AReg), uint8(in.BReg)
		}

	case vx.SETCC:
		u.kind, u.a, u.cond = uSETCC, uint8(in.AReg), uint8(in.Cond)

	case vx.JMP:
		u.kind, u.tgt = uJMP, in.Target

	case vx.JCC:
		u.kind, u.cond, u.tgt = uJCC, uint8(in.Cond), in.Target

	case vx.CALLQ:
		if in.HostIdx >= 0 {
			u.kind, u.tgt = uCALLH, in.HostIdx
		} else {
			u.kind, u.tgt = uCALL, in.Target
		}

	case vx.RET:
		u.kind = uRET

	case vx.PUSHQ:
		if regA {
			u.kind, u.a = uPUSHr, uint8(in.AReg)
		}

	case vx.POPQ:
		u.kind, u.a = uPOPr, uint8(in.AReg)

	case vx.PUSHF:
		u.kind = uPUSHF

	case vx.POPF:
		u.kind = uPOPF
	}
	return u
}
