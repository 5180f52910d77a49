package vm

import (
	"testing"

	"repro/internal/vx"
)

// TestScrambleTableMatchesReference pins the host-call clobber — two range
// copies from a precomputed register file — to the original per-call loop:
// it must leave the register file bit-identical to re-deriving every skip
// condition and garbage value on the fly, which also holds the two ranges to
// vx.CallerSavedGPR/FPR. The campaign equivalence matrix then extends the
// guarantee end to end (host-call-heavy campaigns stay bit-identical across
// worker counts and cache states).
func TestScrambleTableMatchesReference(t *testing.T) {
	var m Machine
	for i := range m.Regs {
		m.Regs[i] = 0xA5A5_0000 | uint64(i) // recognizable pre-state
	}
	m.scrambleExceptResults()

	var ref Machine
	for i := range ref.Regs {
		ref.Regs[i] = 0xA5A5_0000 | uint64(i)
	}
	// The pre-table implementation, spelled out.
	for _, r := range vx.CallerSavedGPR {
		if r == vx.R0 {
			continue
		}
		ref.Regs[r] = 0xD15EA5ED0000_0000 | uint64(r)
	}
	for _, r := range vx.CallerSavedFPR {
		if r == vx.F0 {
			continue
		}
		ref.Regs[r] = 0x7FF8_DEAD_0000_0000 | uint64(r)
	}
	ref.Regs[vx.RFLAGS] = vx.FlagS

	if m.Regs != ref.Regs {
		for i := range m.Regs {
			if m.Regs[i] != ref.Regs[i] {
				t.Errorf("reg %d: copies %#x, reference %#x", i, m.Regs[i], ref.Regs[i])
			}
		}
	}
}

// TestScrambleExceptResultsPreservesReturns: the host-call clobber leaves
// R0/F0 as the host function wrote them.
func TestScrambleExceptResultsPreservesReturns(t *testing.T) {
	var m Machine
	m.Regs[vx.R0] = 0x1234
	m.Regs[vx.F0] = 0x5678
	m.scrambleExceptResults()
	if m.Regs[vx.R0] != 0x1234 || m.Regs[vx.F0] != 0x5678 {
		t.Fatalf("return registers clobbered: R0=%#x F0=%#x", m.Regs[vx.R0], m.Regs[vx.F0])
	}
}
