package vm

import (
	"math"

	"repro/internal/vx"
)

// This file implements REFINE's site superinstruction: predecode-time
// fusion, run by the uSITE case of runFast's switch. A REFINE binary runs 16
// instrumentation instructions behind every target instruction, and on all
// but one dynamic occurrence per trial they do nothing but save state, ask
// the control runtime "trigger here?", hear "no", and restore the state
// again. The predecoder recognises that sequence by shape and the hook-free
// loop executes the whole not-triggered path in one dispatch.
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

// A fused head's uop keeps the plain store's cost and slot address (imm) and
// holds the rest of what the uSITE case reads in the operand bytes, which a
// uSITE does not use otherwise:
//
//	tgt             the site's exit, post+6, always behind the head
//	cond            need: 0, or the distance to the deadline from which the
//	                site may skip its writes because the next site rewrites
//	                them (elide)
//	a, b, c, scale  maxOff, little-endian: the largest SP displacement a
//	                load or store on the paths elide walked uses
//
// unfuseSite gives the slot back its store (predecode1). Image.sites lists
// the heads matched when the image was built. Sites are fixed at build:
// Repredecode is for site-free images and refuses an image that has any.

// siteMaxOff reads maxOff out of a fused head's operand bytes.
func siteMaxOff(u *uop) uint64 {
	return uint64(u.a) | uint64(u.b)<<8 | uint64(u.c)<<16 | uint64(u.scale)<<24
}

// sitePushOrder is the PreFI push order after PUSHF; PostFI pops in reverse.
var sitePushOrder = [4]vx.Reg{vx.R0, vx.R1, vx.R2, vx.R3}

// matchSite reports whether the instructions at head have the site shape,
// on the predecoded stream, and where the site exits: post+6, which must lie
// behind the head, so that the site's run counts are known when runs reaches
// the head.
func (img *Image) matchSite(head int32) (exit int32, ok bool) {
	code := img.code[:len(img.Instrs)]
	if head < 0 || int(head)+sitePreLen > len(code) {
		return 0, false
	}
	absSP := func(u *uop) bool {
		return u.a == uint8(vx.SP) && u.b == uint8(vx.NoReg) && u.c == uint8(vx.NoReg)
	}
	pre := code[head : head+sitePreLen]
	in := &img.Instrs[head]
	if pre[0].kind != uSTORE || in.Op != vx.MOVQ || !in.Instrumented || !absSP(&pre[0]) {
		return 0, false
	}
	if pre[1].kind != uPUSHF {
		return 0, false
	}
	for i, r := range sitePushOrder {
		if u := &pre[2+i]; u.kind != uPUSHr || u.a != uint8(r) {
			return 0, false
		}
	}
	if u := &pre[6]; u.kind != uMOVri || u.a != uint8(vx.R1) {
		return 0, false
	}
	if pre[siteCallOff].kind != uCALLH {
		return 0, false
	}
	if u := &pre[8]; u.kind != uTESTrr || u.a != uint8(vx.R0) || u.b != uint8(vx.R0) {
		return 0, false
	}
	br := &pre[9]
	if br.kind != uJCC || vx.Cond(br.cond) != vx.CondE {
		return 0, false
	}
	if br.tgt < 0 || int(br.tgt)+sitePostLen > len(code) || br.tgt+sitePostLen <= head {
		return 0, false
	}
	post := code[br.tgt : br.tgt+sitePostLen]
	for i, r := range sitePushOrder {
		if u := &post[3-i]; u.kind != uPOPr || u.a != uint8(r) {
			return 0, false
		}
	}
	if post[4].kind != uPOPF {
		return 0, false
	}
	if u := &post[5]; u.kind != uLOAD || !absSP(u) || u.imm != pre[0].imm {
		return 0, false
	}
	return br.tgt + sitePostLen, true
}

// fuseSite rewrites the head of a matched site to uSITE, exiting at exit.
func (img *Image) fuseSite(head, exit int32) {
	u := &img.code[head]
	u.kind, u.tgt = uSITE, exit
	u.a, u.b, u.c, u.scale, u.cond = 0, 0, 0, 0, 0
	if i := img.code[head+siteCallOff].tgt; len(img.sites) == 0 {
		img.siteHost = i
	} else if i != img.siteHost {
		img.siteHost = -1
	}
	img.sites = append(img.sites, head)
}

// siteCycles is the cycles of a fused site's 15 instructions behind its
// head, without the host function's own latency, which is the machine's
// binding: the slots' own costs, which runs adds to the head's.
func (img *Image) siteCycles(head int32) int {
	cy := 0
	for _, u := range img.code[head+1 : head+sitePreLen] {
		cy += int(u.cost)
	}
	post := img.code[head].tgt - sitePostLen
	for _, u := range img.code[post : post+sitePostLen] {
		cy += int(u.cost)
	}
	return cy
}

// siteElideLimit bounds the instructions elide walks from one site to the
// next.
const siteElideLimit = 48

// elide sets the fused head's need and maxOff (above) when every path from
// its exit reaches the head of a site with the same SP slot within
// siteElideLimit instructions, through clear uops only (clearUop). It runs
// once all sites are matched.
func (img *Image) elide(head int32) {
	code := img.code
	site := &code[head]
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
			return 0, u.imm == site.imm
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
	abs := uint64(site.imm)
	if l, ok := walk(site.tgt, 0); ok && img.MemSize >= 8 && maxOff <= img.MemSize-8 && maxOff <= math.MaxUint32 &&
		abs >= DefaultGlobalBase && abs <= uint64(img.MemSize)-8 {
		site.cond = uint8(siteAfterHead + l + siteWrites)
		site.a, site.b, site.c, site.scale = uint8(maxOff), uint8(maxOff>>8), uint8(maxOff>>16), uint8(maxOff>>24)
	}
}

// clearUop reports whether u is one of the uops elide lets stand between a
// site and the next one: it cannot trap once its SP operand is in bounds,
// leaves SP and the memory below it alone, and runs no Go.
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
	case uCMPrr, uCMPri, uTESTrr, uUCOMISDrr, uJMP, uJCC:
		return true
	}
	return false
}

// unfuseSite gives a fused head back the plain store it is, for count's
// overflow cut and the tests. Its run counts are then stale: the caller
// recounts.
func (img *Image) unfuseSite(head int32) {
	if img.code[head].kind == uSITE {
		img.code[head] = predecode1(&img.Instrs[head])
	}
}

// The fused site is runFast's uSITE case, a straight uop: the head of its
// run charged the site's 16 instructions and their cycles (runs), all but
// the host function's latency, which is the machine's binding and the case
// adds, and the run goes on at the site's exit, post+6.
//
// It fuses one path, the one nearly every call takes: a call the
// register-preserving host declares inert (HostFn.Inert) with an answer of 0
// — selInstr on every call but a trial's few; BindHost decides once whether
// a host has that shape (HostFn.siteInert), and Run finds the image's one
// site host (Machine.siteHost), so the case reads nothing but its own slot
// and that field. That call is made without entering the host function, and
// the pops would read back exactly what was just pushed, so R0..R3 and FLAGS
// keep their values: the whole not-triggered path is the head store, the
// five saves, the counter bump and the closing SP load. The stores stay
// real, in the original order — a fault-flipped SP can make the pushes
// overwrite the save slot, and the closing load must then read what they
// wrote — unless the next site is certain to repeat them first (below).
// When the save area [sp-40, sp) misses the slot, the load would read back
// the SP the head just stored, and SP keeps its value instead. The save area
// is checked wholly in bounds once and marked once: one page, or two across
// a boundary, exactly the pages the unfused pushes would mark. The writing
// path is Machine.site, out of line.
//
// A site whose writes the next site repeats writes nothing. elide walks, once
// per image, every path from the end of a site to the next head saving SP to
// the same slot, through clear uops only (clearUop: no push, pop, call,
// return, host call, division, generic uop, SP write, or memory operand but
// [SP+d] with d ≥ 0), within 48 instructions, and records the distance to
// the deadline the stretch needs (need) and the largest SP displacement on
// it (maxOff). The case then skips the head store, the saves and the
// marking when the call is inert, the deadline is need or more instructions
// away from the head — the head of the run charged past the site, so the
// room is measured from the site's own position, rem-1 instructions before
// the run's end — and SP lies at least 48 bytes above the slot with
// SP+maxOff in bounds (elide admits only a slot in bounds). Nothing can see
// the difference before the next site has made it good: no clear uop traps
// or runs Go; no deadline falls in the stretch; SP does not move, so every
// access at or above it misses the slot and the save area; and the next
// site, on any path — fused or not, skipped in turn (its own need covers the
// site after it), triggered or not — stores the same SP to the same slot and
// pushes the current FLAGS and R0..R3 to the same 40 bytes, marking the same
// pages, before its CALLQ. The paths elide walked stay as they are: sites
// are fixed at build, and Repredecode, which rewrites code, is for site-free
// images only.
//
// No deadline falls inside the site: the run was entered whole. Anything
// else — a call with work, an unbound host or one of another shape, a slot
// or save area that is not wholly in bounds — takes back the rest of the
// run (unwind), as a trapping uop does, makes the head store and leaves the
// rest of the sequence to the unfused slots, which PC points at and which do
// it exactly. No Go ran on any path, so the loop's deadline stays exact.
