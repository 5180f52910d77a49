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
	uUCOMISDri
	uANDPDri // reg ← reg & imm bits (fabs)

	// ALU ops with a memory operand: the spill and reload shapes of LLFI's
	// code (a stack slot as source, or as the compared operand), and a sum
	// kept in memory.
	uADDrm  // reg ← reg + [mem]
	uADDmr  // [mem] ← [mem] + reg; the register in a
	uORrm   // reg ← reg | [mem]
	uFADDrm // reg ← reg + [mem], FP
	uFSUBrm
	uFMULrm
	uTESTmr // flags ← [mem] & reg; the register in a
	uCMPmi  // flags ← [mem] cmp imm; displacement in tgt

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
	// its tgt indexing Image.sites.
	uSITE

	// uEND is the exit sentinel at code[len(Instrs)]: the slot a return
	// through the sentinel, or a fall off the last instruction, lands on.
	uEND
)

// uop is one predecoded micro-op. Field use depends on kind:
//
//	a           destination / register operand
//	b, c, scale memory base, index (NoReg ⇒ absent) and scale
//	imm         immediate or memory displacement
//	tgt         branch target, host index, uSTOREi/uCMPmi displacement, or side-table entry
//	cond        condition code for JCC / SETCC
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
	for pc := range img.Instrs {
		if s, ok := img.matchSite(int32(pc)); ok {
			img.code[pc].kind, img.code[pc].tgt = uSITE, int32(len(img.sites))
			img.sites = append(img.sites, s)
		}
	}
	// Sites whose writes the next site repeats (site.go): on the final
	// stream, which every walk reads whole.
	for i := range img.sites {
		img.elide(&img.sites[i])
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
// mid-run). Every site superinstruction one of whose slots is pc drops back
// to its plain head for good — restoring the slot does not fuse it again —
// and no site skips its writes any more: a path elide walked may have
// changed. Mutating an image forfeits its share-across-goroutines
// guarantee: callers must have exclusive use of the image for the whole
// mutate/run/restore window. The runs are counted anew over the whole image:
// the slot may have started or ended one.
func (img *Image) Repredecode(pc int32) {
	img.ensure()
	if pc >= 0 && int(pc) < len(img.Instrs) {
		img.code[pc] = predecode1(&img.Instrs[pc])
	}
	img.unfuseSitesAround(pc)
	for i := range img.sites {
		img.sites[i].need = 0
	}
	img.runs()
}

// runs cuts the predecoded stream into straight-line runs and stores, in
// every uop, the architectural instructions (rem) and cycles (remCy) from
// its slot to the end of its run, in one backward pass. runFast charges a
// run once, at its first slot, and then dispatches its uops with no
// per-instruction accounting (run.go).
//
// A run ends at the first uop that does not fall through to the next slot
// on its own: a terminator — uJMP, uJCC, uCALL, uRET — or a breaker —
// uCALLH, uSITE, uGeneric, which may run Go, hand over to unfused slots or
// halt. Either is counted in the run it ends. Every other uop is straight
// and continues into the run of the slot behind it. The
// uEND sentinel ends a run before itself: it is no instruction, and its
// counts are 0. A run whose counts would not fit in 16 bits demotes the
// slot where they overflow to uGeneric, the reference path, which ends the
// run there; no evaluation build comes near (its longest run is 70
// instructions, 191 cycles).
//
// It runs after every rewrite of code: the end of build (after elide),
// Repredecode, and the tests' unfuse helpers.
func (img *Image) runs() {
	code := img.code
	for pc := len(code) - 1; pc >= 0; pc-- {
		u := &code[pc]
		var rem, cy int
		switch u.kind {
		case uEND:
		case uJMP, uJCC, uCALL, uRET, uCALLH, uSITE, uGeneric:
			rem, cy = 1, int(u.cost)
		default:
			next := &code[pc+1] // in bounds: the last slot is the sentinel
			rem, cy = 1+int(next.rem), int(u.cost)+int(next.remCy)
			if rem > math.MaxUint16 || cy > math.MaxUint16 {
				*u = uop{kind: uGeneric, cost: uint8(img.Instrs[pc].Op.CycleCost())}
				rem, cy = 1, int(u.cost)
			}
		}
		u.rem, u.remCy = uint16(rem), uint16(cy)
	}
}

// intALUKinds and fpALUKinds map two-address ALU opcodes to their
// {reg/reg, reg/imm, reg/mem} uop kinds; uGeneric marks a shape too rare to
// earn one. XORQ and SHRQ have none and stay out of the table.
var intALUKinds = map[vx.Op][3]uopKind{
	vx.ADDQ: {uADDrr, uADDri, uADDrm}, vx.SUBQ: {uSUBrr, uSUBri, uGeneric},
	vx.IMULQ: {uIMULrr, uIMULri, uGeneric},
	vx.ANDQ:  {uGeneric, uANDri, uGeneric}, vx.ORQ: {uORrr, uGeneric, uORrm},
	vx.SHLQ: {uGeneric, uSHLri, uGeneric}, vx.SARQ: {uGeneric, uSARri, uGeneric},
	vx.IDIVQ: {uIDIVrr, uIDIVri, uGeneric}, vx.IREMQ: {uIREMrr, uIREMri, uGeneric},
}

var fpALUKinds = map[vx.Op][3]uopKind{
	vx.ADDSD: {uFADDrr, uFADDri, uFADDrm}, vx.SUBSD: {uFSUBrr, uFSUBri, uFSUBrm},
	vx.MULSD: {uFMULrr, uFMULri, uFMULrm}, vx.DIVSD: {uFDIVrr, uFDIVri, uGeneric},
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
		if in.Op == vx.ADDQ && in.AKind == OpMem && regB && memOK() {
			// Read, add, write back: two memory surcharges, as in execOp.
			u.kind, u.a = uADDmr, uint8(in.BReg)
			setMem()
			u.cost += 2 * vx.MemExtraCycles
		}
		if !regA {
			break
		}
		k := intALUKinds[in.Op]
		switch {
		case regB:
			u.kind, u.a, u.b = k[0], uint8(in.AReg), uint8(in.BReg)
		case in.BKind == OpImm:
			u.kind, u.a, u.imm = k[1], uint8(in.AReg), in.Imm
		case in.BKind == OpMem && memOK() && k[2] != uGeneric:
			u.kind, u.a = k[2], uint8(in.AReg)
			setMem()
			u.cost += vx.MemExtraCycles
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
		case in.BKind == OpMem && memOK() && k[2] != uGeneric:
			u.kind, u.a = k[2], uint8(in.AReg)
			setMem()
			u.cost += vx.MemExtraCycles
		}

	case vx.ANDPD:
		if immB {
			u.kind, u.a, u.imm = uANDPDri, uint8(in.AReg), in.Imm
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
		switch {
		case regB:
			u.kind, u.a, u.b = uUCOMISDrr, uint8(in.AReg), uint8(in.BReg)
		case immB:
			u.kind, u.a, u.imm = uUCOMISDri, uint8(in.AReg), in.Imm
		}

	case vx.CMPQ:
		switch {
		case regA && regB:
			u.kind, u.a, u.b = uCMPrr, uint8(in.AReg), uint8(in.BReg)
		case regA && in.BKind == OpImm:
			u.kind, u.a, u.imm = uCMPri, uint8(in.AReg), in.Imm
		case in.AKind == OpMem && immB && memOK() && int64(int32(in.MemDisp)) == in.MemDisp:
			u.kind, u.imm = uCMPmi, in.Imm
			u.b = uint8(in.MemBase)
			u.c = uint8(in.MemIndex)
			u.scale = uint8(in.MemScale)
			u.tgt = int32(in.MemDisp)
			u.cost += vx.MemExtraCycles
		}

	case vx.TESTQ:
		switch {
		case regA && regB:
			u.kind, u.a, u.b = uTESTrr, uint8(in.AReg), uint8(in.BReg)
		case in.AKind == OpMem && regB && memOK():
			u.kind, u.a = uTESTmr, uint8(in.BReg)
			setMem()
			u.cost += vx.MemExtraCycles
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
