package vm

import (
	"sort"
	"sync"

	"repro/internal/vx"
)

// This file implements the image predecode pass: it lowers the decoded
// instruction stream into a parallel array of compact micro-ops (uops)
// specialized by operand shape, so the inner dispatch loop in run.go pays
// neither the operand-kind switches of readA/readB/writeA nor the
// CycleCost lookup on the hot path. It also fuses the ubiquitous
// CMPQ+JCC / TESTQ+JCC pairs into superinstructions, matches the two
// instrumentation sequences (site.go), and builds the host-symbol and
// function indexes used by Imports/BindHost/FuncOf.
//
// Fusion never rewrites any but the first instruction of a sequence: the
// JCC slot of a pair keeps its own unfused uop, so control transfers that
// land on it directly (branches, corrupted return addresses after a fault)
// still execute correctly. The fused uop only runs when control reaches the
// first instruction.

type predecodeOnce = sync.Once

// uopKind enumerates the specialized micro-ops. Anything not covered by a
// dedicated kind falls back to uGeneric, which dispatches through the same
// execOp switch Step uses, so the long tail keeps reference semantics. A
// shape earns a kind only if some workload gives it at least 0.01 % of
// dispatches (README.md, "Which uops earn a kind").
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

	// Compares, branches, and fused superinstructions.
	uCMPrr
	uCMPri
	uTESTrr
	uCMPrrJCC
	uCMPriJCC
	uTESTrrJCC
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

	// The instrumentation superinstructions (site.go), each a head slot
	// whose tgt indexes a side table: uSITE a REFINE site's uSTORE
	// (Image.sites), uCALLSITE an LLFI call's first move (Image.calls).
	uSITE
	uCALLSITE
)

// uop is one predecoded micro-op. Field use depends on kind:
//
//	a           destination / register operand
//	b, c, scale memory base, index (NoReg ⇒ absent) and scale
//	imm         immediate or memory displacement
//	tgt         branch target, host index, uSTOREi displacement, or side-table entry
//	cond        condition code for (fused) JCC / SETCC
//	cost        cycle cost charged up front (op cost + memory surcharge)
//	cost2       cycle cost of the branch half of a fused pair
type uop struct {
	kind  uopKind
	a     uint8
	b     uint8
	c     uint8
	scale uint8
	cond  uint8
	cost  uint8
	cost2 uint8
	imm   int64
	tgt   int32
	_     int32
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

	img.code = make([]uop, len(img.Instrs))
	for pc := range img.Instrs {
		img.code[pc] = predecode1(&img.Instrs[pc])
	}
	// Superinstruction fusion: a reg/reg or reg/imm CMPQ, or a reg/reg
	// TESTQ, immediately followed by a JCC executes as one dispatch when
	// reached by fallthrough. The JCC slot keeps its unfused uop (see file
	// comment).
	for pc := range img.Instrs {
		img.fuse(int32(pc))
	}
	// Site and call superinstructions (site.go): matched on the fused
	// stream, in that order, rewriting head slots only.
	for pc := range img.Instrs {
		if s, ok := img.matchSite(int32(pc)); ok {
			img.code[pc].kind, img.code[pc].tgt = uSITE, int32(len(img.sites))
			img.sites = append(img.sites, s)
		}
	}
	for pc := range img.Instrs {
		if c, ok := img.matchCall(int32(pc)); ok {
			img.code[pc].kind, img.code[pc].tgt = uCALLSITE, int32(len(img.calls))
			img.calls = append(img.calls, c)
		}
	}

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

// fuse upgrades code[pc] to a fused compare+branch superinstruction when
// the instruction at pc+1 is a JCC and pc holds a fusable compare shape.
func (img *Image) fuse(pc int32) {
	if int(pc)+1 >= len(img.Instrs) {
		return
	}
	next := &img.Instrs[pc+1]
	if next.Op != vx.JCC {
		return
	}
	var fused uopKind
	switch img.code[pc].kind {
	case uCMPrr:
		fused = uCMPrrJCC
	case uCMPri:
		fused = uCMPriJCC
	case uTESTrr:
		fused = uTESTrrJCC
	default:
		return
	}
	img.code[pc].kind = fused
	img.code[pc].cond = uint8(next.Cond)
	img.code[pc].tgt = next.Target
	img.code[pc].cost2 = uint8(vx.JCC.CycleCost())
}

// Clone returns a private copy of the image for injectors that mutate the
// instruction stream in place (opcode corruption): the instruction slice is
// deep-copied and the predecoded state left unbuilt, so Repredecode on the
// clone never touches the original and the clone regains the full
// share-nothing mutation license Repredecode's contract demands. Read-only
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
// mid-run). The neighboring slot pc-1 is re-fused as well, since its fused
// state depends on what pc holds, and every site or call superinstruction
// one of whose slots is pc drops back to its plain head for good — restoring
// the slot does not fuse it again. Mutating an image forfeits its
// share-across-goroutines guarantee: callers must have exclusive use of
// the image for the whole mutate/run/restore window.
func (img *Image) Repredecode(pc int32) {
	img.ensure()
	for _, p := range [2]int32{pc - 1, pc} {
		if p < 0 || int(p) >= len(img.Instrs) {
			continue
		}
		img.code[p] = predecode1(&img.Instrs[p])
		img.fuse(p)
	}
	img.unfuseSitesAround(pc)
	img.unfuseCallsAround(pc)
}

// intALUKinds and fpALUKinds map two-address ALU opcodes to their
// {reg/reg, reg/imm} uop kinds; uGeneric marks a shape too rare to earn one.
// XORQ and SHRQ have neither and stay out of the table.
var intALUKinds = map[vx.Op][2]uopKind{
	vx.ADDQ: {uADDrr, uADDri}, vx.SUBQ: {uSUBrr, uSUBri}, vx.IMULQ: {uIMULrr, uIMULri},
	vx.ANDQ: {uGeneric, uANDri}, vx.ORQ: {uORrr, uGeneric},
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
