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
	// siteWrites is the head store and the five pushes.
	siteWrites = 6
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
	// need is 0, or the distance to the deadline from which the site may
	// skip its writes because the next site rewrites them (elide): the 15
	// instructions behind the head, the longest clear path to the next
	// head, and that head's store and five pushes. maxOff is the largest SP
	// displacement a load or store on those paths uses.
	need   int64
	maxOff uint64
}

// sitePushOrder is the PreFI push order after PUSHF; PostFI pops in reverse.
var sitePushOrder = [4]vx.Reg{vx.R0, vx.R1, vx.R2, vx.R3}

// matchSite reports whether the instructions at head have the site shape.
// It reads the predecoded stream, so it must run after fuse (the TESTQ+JE
// pair is recognised in its fused form).
func (img *Image) matchSite(head int32) (siteInfo, bool) {
	code := img.code[:len(img.Instrs)]
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

// siteElideLimit bounds the instructions elide walks from one site to the
// next.
const siteElideLimit = 48

// elide sets s.need and s.maxOff when every path from the end of s reaches
// the head of a site with the same SP slot within siteElideLimit
// instructions, through clear uops only (clearUop). It runs once all sites
// are matched.
func (img *Image) elide(s *siteInfo) {
	code := img.code
	n := int32(len(img.Instrs))
	// dist is the longest path from a pc to the next head, once known; -1
	// while the pc is on the walk's stack, so a cycle fails the walk.
	dist := make(map[int32]int32)
	var maxOff int64
	var walk func(pc, depth int32) (int32, bool)
	walk = func(pc, depth int32) (int32, bool) {
		if pc < 0 || pc >= n {
			return 0, false
		}
		u := &code[pc]
		if u.kind == uSITE {
			return 0, uint64(u.imm) == s.abs
		}
		if d, seen := dist[pc]; seen {
			return d, d >= 0 && depth+d <= siteElideLimit
		}
		if depth >= siteElideLimit || !clearUop(u) {
			return 0, false
		}
		if u.kind == uLOAD || u.kind == uSTORE {
			maxOff = max(maxOff, u.imm)
		}
		dist[pc] = -1
		d, ok := int32(0), true
		if u.kind != uJMP {
			d, ok = walk(pc+1, depth+1)
		}
		if ok && (u.kind == uJMP || u.kind == uJCC) {
			var t int32
			t, ok = walk(u.tgt, depth+1)
			d = max(d, t)
		}
		if !ok {
			return 0, false
		}
		dist[pc] = d + 1
		return d + 1, true
	}
	if l, ok := walk(s.post+sitePostLen, 0); ok && img.MemSize >= 8 && maxOff <= img.MemSize-8 {
		s.need = siteAfterHead + int64(l) + siteWrites
		s.maxOff = uint64(maxOff)
	}
}

// clearUop reports whether u is one of the uops elide lets stand between a
// site and the next one: it cannot trap once its SP operand is in bounds,
// leaves SP and the memory below it alone, and runs no Go. The fused
// compare+branch kinds count as their compare: their JCC slot follows.
func clearUop(u *uop) bool {
	sp := uint8(vx.SP)
	switch u.kind {
	case uMOVrr, uMOVri, uLEA, uSETCC,
		uADDrr, uADDri, uSUBrr, uSUBri, uIMULrr, uIMULri, uANDri, uORrr, uSHLri, uSARri, uNEG, uNOT,
		uFADDrr, uFADDri, uFSUBrr, uFSUBri, uFMULrr, uFMULri, uFDIVrr, uFDIVri,
		uSQRTrr, uCVTSI2SDrr, uCVTTSD2SIrr:
		return u.a != sp
	case uLOAD:
		return u.a != sp && u.b == sp && u.c == uint8(vx.NoReg) && u.imm >= 0
	case uSTORE:
		return u.b == sp && u.c == uint8(vx.NoReg) && u.imm >= 0
	case uCMPrr, uCMPri, uTESTrr, uUCOMISDrr, uCMPrrJCC, uCMPriJCC, uTESTrrJCC, uJMP, uJCC:
		return true
	}
	return false
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
// already accounted for (InstrCount, cost, PC).
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
// they wrote — unless the next site is certain to repeat them first (below).
// When the save area [sp-40, sp) misses the slot, the load would read back
// the SP the head just stored, and SP keeps its value instead. The save area
// is checked wholly in bounds once and marked once: one page, or two across
// a boundary, exactly the pages the unfused pushes would mark.
//
// A site whose writes the next site repeats writes nothing. elide walks, once
// per image, every path from the end of a site to the next head saving SP to
// the same slot, through clear uops only (clearUop: no push, pop, call,
// return, host call, division, generic uop, SP write, or memory operand but
// [SP+d] with d ≥ 0), within 48 instructions, and records the distance to
// the deadline the stretch needs (need) and the largest SP displacement on
// it (maxOff). The case then skips the head store, the saves and the
// marking, and accounts the same fifteen instructions, when the call is
// inert, the deadline is need or more instructions away, and SP lies at least 48 bytes above the slot with SP+maxOff
// in bounds. Nothing can see the difference before the next site has made
// it good: no clear uop traps or runs Go; no deadline falls in the stretch;
// SP does not move, so every access at or above it misses the slot and the
// save area; and the next site, on any path — fused or not, skipped in turn
// (its own need covers the site after it), triggered or not — stores the
// same SP to the same slot and pushes the current FLAGS and R0..R3 to the
// same 40 bytes, marking the same pages, before its CALLQ. Repredecode
// clears need on every site.
//
// Anything else continues right after the head store and leaves the rest of
// the sequence to the unfused slots, which PC already points at and which
// do it exactly: a call with work, a deadline (budget or fire point) within
// the remaining 15 instructions, an unbound host or one of another shape, or
// a save area that is not wholly in bounds. No Go ran on either path, so the
// loop's deadline stays exact.

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
	if head < 0 || int(head)+callLen > len(img.Instrs) {
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
