package vm

import "repro/internal/vx"

// This file implements the two instrumentation superinstructions, REFINE's
// site and LLFI's call (below): predecode-time fusion next to the
// compare+branch pairs in predecode.go, each run by a case of runFast's
// switch. A REFINE binary runs 16 instrumentation instructions behind every target
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

// The fused site is runFast's uSITE case, which finds the head instruction
// already accounted for (InstrCount, cost, PC, the countdown).
//
// It fuses one path, the one nearly every call takes: a call the
// register-preserving host declares inert (HostFn.Inert) with an answer of 0
// — selInstr on every call but a trial's few; BindHost decides once whether
// a host has that shape (HostFn.siteInert). That call is made without
// entering the host function, and the pops would read back exactly what was
// just pushed, so R0..R3 and FLAGS keep their values: the whole
// not-triggered path is the head store, the five saves, the counter bump
// and the closing SP load, accounted as the sixteen single dispatches. The
// stores stay real, in the original order — a fault-flipped SP can make the
// pushes overwrite the save slot, and the closing load must then read what
// they wrote. When the save area [sp-40, sp) misses the slot, the load would
// read back the SP the head just stored, and SP keeps its value instead. The
// save area is checked wholly in bounds once and marked once: one page, or
// two across a boundary, exactly the pages the unfused pushes would mark.
//
// Anything else continues right after the head store and leaves the rest of
// the sequence to the unfused slots, which PC already points at and which
// do it exactly: a call with work, a deadline (budget or fire point) within
// the remaining 15 instructions, an unbound host or one of another shape, or
// a save area that is not wholly in bounds. No Go ran on either path, so the
// loop's countdown stays exact.

// The call superinstruction is the same idea for LLFI: every injectFault
// call is four instructions around one host call, and on all but a trial's
// one or two it passes its value through and counts. The matched shape, by
// uop kind only (no symbol names, no Instrumented mark):
//
//	head+0  MOVQ/MOVSD reg ← imm or reg   (i64: R1 ← id;  f64: R0 ← id)
//	head+1  MOVQ/MOVSD reg ← imm or reg   (i64: R2 ← value;  f64: R1 ← R0)
//	head+2  CALLQ host
//	head+3  MOVQ/MOVSD reg ← reg or imm, or [mem] ← reg
//
// The last slot takes the value out of R0 or F0 into its register or its
// stack slot (and, where the value is dead, is the next instruction of the
// block). As for sites, only the head slot is rewritten (to uCALLSITE, its
// tgt indexing Image.calls) and Step runs the four instructions unfused. The
// fused case runs the head move and then, if the host declares this call
// inert and the deadline is not within the three instructions behind the
// head, the rest of the sequence: the second move, the inert call and its
// clobber, the last slot. Otherwise it continues at head+1 and the unfused
// slots do the rest — an unbound host's call slot traps there, and a call
// with work enters Fn there.

// callLen is the length of the call shape.
const callLen = 4

// callInfo is the side-table entry of one call shape matched when the image
// was built; the head uop's tgt indexes it. A call Repredecode unfused keeps
// its entry, unused.
type callInfo struct {
	head int32
	host int32 // host index of the CALLQ
	// ops are the uops of head+0 and head+1 (uMOVri or uMOVrr) and of
	// head+3 (either of those, or uSTORE).
	ops [3]uop
	// cycles covers head+1..head+3, without the host function's own latency
	// (the machine's binding); the head's cost is charged by the dispatch
	// loop like any uop's.
	cycles int64
}

// matchCall reports whether the instructions at head have the call shape.
// It runs after fuse and matchSite and reads the stream they left; a slot
// either rewrote is not a move or a host call, so it never matches.
func (img *Image) matchCall(head int32) (callInfo, bool) {
	if head < 0 || int(head)+callLen > len(img.code) {
		return callInfo{}, false
	}
	s := img.code[head : head+callLen]
	move := func(u *uop) bool { return u.kind == uMOVri || u.kind == uMOVrr }
	if !move(&s[0]) || !move(&s[1]) || s[2].kind != uCALLH || !(move(&s[3]) || s[3].kind == uSTORE) {
		return callInfo{}, false
	}
	return callInfo{
		head:   head,
		host:   s[2].tgt,
		ops:    [3]uop{s[0], s[1], s[3]},
		cycles: int64(s[1].cost) + int64(s[2].cost) + int64(s[3].cost),
	}, true
}

// unfuseCallsAround demotes every fused call one of whose four slots is pc
// to its plain head move, after Repredecode refreshed that slot. Like a
// site, a call never fuses again.
func (img *Image) unfuseCallsAround(pc int32) {
	for i := range img.calls {
		c := &img.calls[i]
		if u := &img.code[c.head]; pc >= c.head && pc < c.head+callLen && u.kind == uCALLSITE {
			*u = c.ops[0]
		}
	}
}

// move runs a uMOVri or uMOVrr uop.
func (m *Machine) move(u *uop) {
	if u.kind == uMOVri {
		m.Regs[u.a] = uint64(u.imm)
	} else {
		m.Regs[u.a] = m.Regs[u.b]
	}
}
