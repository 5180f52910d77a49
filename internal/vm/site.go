package vm

import (
	"encoding/binary"

	"repro/internal/vx"
)

// This file implements the site superinstruction: the second kind of
// predecode-time fusion, next to the compare+branch pairs in predecode.go.
// A REFINE binary runs 16 instrumentation instructions behind every target
// instruction, and on all but one dynamic occurrence per trial they do
// nothing but save state, ask the control runtime "trigger here?", hear
// "no", and restore the state again. The predecoder recognises that
// sequence by shape and the hook-free loop executes the whole not-triggered
// path in one dispatch.
//
// The matched shape (pre at head, post wherever the JE lands):
//
//	head+0  MOVQ [abs] ← SP        post+0  POPQ R3
//	head+1  PUSHF                  post+1  POPQ R2
//	head+2  PUSHQ R0               post+2  POPQ R1
//	head+3  PUSHQ R1               post+3  POPQ R0
//	head+4  PUSHQ R2               post+4  POPF
//	head+5  PUSHQ R3               post+5  MOVQ SP ← [abs]
//	head+6  MOVQ R1 ← imm
//	head+7  CALLQ host
//	head+8  TESTQ R0, R0
//	head+9  JE post
//
// The matcher looks at operand shapes only — no symbol names, so vm stays
// ignorant of who emits the sequence — and requires the head to carry the
// assembler's Instrumented mark. Only the head slot is rewritten (to uSITE);
// the other 15 slots keep their own uops, so branches and corrupted return
// addresses landing mid-sequence execute exactly what they always did.
// Step executes the head as the plain store it is: a traced or stepped run
// sees every instruction.

const (
	sitePreLen  = 10 // instructions at head (PreFI)
	sitePostLen = 6  // instructions at post (PostFI)
	siteCallOff = 7  // head-relative slot of the CALLQ
	// Instructions still to run after the head.
	siteAfterHead = sitePreLen + sitePostLen - 1
	// siteSaveBytes is the PreFI save area: FLAGS and R0..R3 pushed below SP.
	siteSaveBytes = 40
)

// siteInfo is the side-table entry of one site matched when the image was
// built; the head uop's tgt indexes it. A site Repredecode unfused keeps its
// entry, unused.
type siteInfo struct {
	head, post int32
	host       int32  // host index of the CALLQ
	abs        uint64 // the SP save slot
	// preCycles covers head+1..head+7 (without the host function's own
	// latency, which is the machine's binding); postCycles covers the TESTQ,
	// the JE and the six post instructions. The head's cost is charged by
	// the dispatch loop like any uop's.
	preCycles, postCycles int64
}

// sitePushOrder is the PreFI push order after PUSHF; PostFI pops in reverse.
var sitePushOrder = [4]vx.Reg{vx.R0, vx.R1, vx.R2, vx.R3}

// matchSite reports whether the instructions at head have the site shape.
// It reads the predecoded stream, so it must run after fuse (the TESTQ+JE
// pair is recognised in its fused form).
func (img *Image) matchSite(head int32) (siteInfo, bool) {
	code := img.code
	if head < 0 || int(head)+sitePreLen > len(code) {
		return siteInfo{}, false
	}
	absSP := func(u *uop) bool {
		return u.a == uint8(vx.SP) && u.b == uint8(vx.NoReg) && u.c == uint8(vx.NoReg)
	}
	pre := code[head : head+sitePreLen]
	in := &img.Instrs[head]
	if pre[0].kind != uSTORE || in.Op != vx.MOVQ || !in.Instrumented || !absSP(&pre[0]) {
		return siteInfo{}, false
	}
	if pre[1].kind != uPUSHF {
		return siteInfo{}, false
	}
	for i, r := range sitePushOrder {
		if u := &pre[2+i]; u.kind != uPUSHr || u.a != uint8(r) {
			return siteInfo{}, false
		}
	}
	if u := &pre[6]; u.kind != uMOVri || u.a != uint8(vx.R1) {
		return siteInfo{}, false
	}
	if pre[siteCallOff].kind != uCALLH {
		return siteInfo{}, false
	}
	br := &pre[8]
	if br.kind != uTESTrrJCC || br.a != uint8(vx.R0) || br.b != uint8(vx.R0) || vx.Cond(br.cond) != vx.CondE {
		return siteInfo{}, false
	}
	if br.tgt < 0 || int(br.tgt)+sitePostLen > len(code) {
		return siteInfo{}, false
	}
	post := code[br.tgt : br.tgt+sitePostLen]
	for i, r := range sitePushOrder {
		if u := &post[3-i]; u.kind != uPOPr || u.a != uint8(r) {
			return siteInfo{}, false
		}
	}
	if post[4].kind != uPOPF {
		return siteInfo{}, false
	}
	if u := &post[5]; u.kind != uLOAD || !absSP(u) || u.imm != pre[0].imm {
		return siteInfo{}, false
	}

	s := siteInfo{
		head: head,
		post: br.tgt,
		host: pre[siteCallOff].tgt,
		abs:  uint64(pre[0].imm),
	}
	for i := 1; i <= siteCallOff; i++ {
		s.preCycles += int64(pre[i].cost)
	}
	s.postCycles = int64(br.cost) + int64(br.cost2)
	for i := range post {
		s.postCycles += int64(post[i].cost)
	}
	return s, true
}

// unfuseSite demotes a fused head to the plain store it is.
func (img *Image) unfuseSite(head int32) {
	if u := &img.code[head]; u.kind == uSITE {
		u.kind, u.tgt = uSTORE, 0
	}
}

// unfuseSitesAround demotes every fused site one of whose 16 slots is pc to
// its plain store, after Repredecode refreshed that slot. A site never fuses
// again: the unfused slots are exact, and the only images that are mutated
// (opcode corruption, on binary-level clones) have no sites.
func (img *Image) unfuseSitesAround(pc int32) {
	for i := range img.sites {
		s := &img.sites[i]
		if (pc >= s.head && pc < s.head+sitePreLen) || (pc >= s.post && pc < s.post+sitePostLen) {
			img.unfuseSite(s.head)
		}
	}
}

// runSite executes a fused site head for runFast, which has already
// accounted for the head instruction (InstrCount, cost, PC). The caller
// re-checks Halted and recomputes its countdown afterwards,
// exactly as after a generic op.
//
// It fuses one path, the one nearly every call takes: a call the
// register-preserving host declares inert (HostFn.Inert) with an answer of 0
// — selInstr on every call but a trial's few. That call is made without
// entering the host function, and the pops would read back exactly what was
// just pushed, so R0..R3 and FLAGS keep their values: the whole
// not-triggered path is the five saves, the counter bump and the closing SP
// load, accounted as the sixteen single dispatches. The stores and the load
// stay real, in the original order — a fault-flipped SP can make the pushes
// overwrite the save slot, and the closing load must then read what they
// wrote.
//
// Anything else returns right after the head store and leaves the rest of
// the sequence to the unfused slots, which PC already points at and which
// do it exactly: a call with work, a deadline (budget or fire point) within
// the remaining 15 instructions, an unbound host, or a save area that is not
// wholly in bounds.
//
//go:noinline
func (m *Machine) runSite(s *siteInfo) {
	sp := m.Regs[vx.SP]
	if !m.store64(s.abs, sp) {
		return
	}
	h := &m.hosts[s.host]
	if !h.inert() || h.Fn == nil || !h.PreserveRegs || h.Inert.Ret != vx.NoReg ||
		m.fastCountdown() < siteAfterHead ||
		sp < DefaultGlobalBase+siteSaveBytes || sp > uint64(len(m.Mem)) {
		return
	}

	// The five pushes write [sp-40, sp), checked above: one page, two across
	// a boundary, and exactly the pages the unfused pushes would mark.
	mem := m.Mem
	save := (*[siteSaveBytes]byte)(mem[sp-siteSaveBytes : sp])
	m.markPage((sp - siteSaveBytes) >> dirtyPageShift)
	m.markPage((sp - 1) >> dirtyPageShift)
	binary.LittleEndian.PutUint64(save[32:], m.Regs[vx.RFLAGS])
	binary.LittleEndian.PutUint64(save[24:], m.Regs[vx.R0])
	binary.LittleEndian.PutUint64(save[16:], m.Regs[vx.R1])
	binary.LittleEndian.PutUint64(save[8:], m.Regs[vx.R2])
	binary.LittleEndian.PutUint64(save[0:], m.Regs[vx.R3])
	*h.Inert.Count++
	// A load, because a wild SP can put the save area over the slot.
	m.Regs[vx.SP] = binary.LittleEndian.Uint64(mem[s.abs:])
	m.InstrCount += siteAfterHead
	m.Cycles += s.preCycles + h.Cycles + s.postCycles
	m.PC = s.post + sitePostLen
}
