package vm

// White-box tests for the batched dirty-page marking: the per-run page ring
// (dirtyRing/dirtyN/lastPage) must never lose a page — not across ring
// overflow, not for stores straddling a page boundary, not for the unflushed
// tail Reset folds in before its sweep. Losing one means a reused machine
// leaks bytes from the previous trial into the next, silently corrupting
// campaign outcomes; these tests pin the invariant at the store64 seam,
// below anything workload behavior can mask.

import (
	"testing"
)

// dirtyTestMachine builds a minimal machine with a large flat memory and no
// program (the store64/Reset seam does not need one).
func dirtyTestMachine(memSize int64) *Machine {
	img := &Image{MemSize: memSize}
	return New(img)
}

func TestDirtyRingOverflowAndStraddle(t *testing.T) {
	const pages = 300 // well past the 64-entry ring: forces mid-run flushes
	m := dirtyTestMachine(DefaultGlobalBase + (pages+2)*dirtyPageSize)
	pristine := append([]byte(nil), m.Mem...)

	// One aligned store per page (distinct pages defeat the lastPage dedup)
	// plus a straddling store across every page boundary: the second page of
	// a straddle is exactly the case a per-store bitmap write got for free
	// and the batched path must handle explicitly.
	for p := uint64(0); p < pages; p++ {
		base := uint64(DefaultGlobalBase) + p*dirtyPageSize
		if !m.store64(base+8, 0xAAAA_BBBB_CCCC_DDDD) {
			t.Fatalf("aligned store on page %d faulted", p)
		}
		if !m.store64(base+dirtyPageSize-3, 0x1111_2222_3333_4444) {
			t.Fatalf("straddling store on page %d faulted", p)
		}
	}
	m.Reset()
	for i := range m.Mem {
		if m.Mem[i] != pristine[i] {
			t.Fatalf("byte %#x (page %d) survived Reset: got %#x want %#x",
				i, i>>dirtyPageShift, m.Mem[i], pristine[i])
		}
	}
	// The only pending ring entry after Reset is the exit-sentinel push at
	// the top of the stack — per-run state the next Reset folds in. Anything
	// else is a leak.
	sentinelPage := uint32((uint64(m.Img.MemSize) - 8) >> dirtyPageShift)
	if m.dirtyN != 1 || m.dirtyRing[0] != sentinelPage {
		t.Fatalf("Reset left ring state beyond the exit-sentinel push: dirtyN=%d ring[0]=%d want page %d",
			m.dirtyN, m.dirtyRing[0], sentinelPage)
	}
}

func TestDirtyRingRepeatedStoresSamePage(t *testing.T) {
	m := dirtyTestMachine(DefaultGlobalBase + 8*dirtyPageSize)
	pristine := append([]byte(nil), m.Mem...)

	// Hammer one page (the lastPage dedup's hot case), then alternate
	// between two pages (defeats dedup without overflowing the ring).
	a := uint64(DefaultGlobalBase)
	b := a + 3*dirtyPageSize
	for i := uint64(0); i < 1000; i++ {
		m.store64(a+(i%500)*8, i)
	}
	for i := uint64(0); i < 100; i++ {
		m.store64(a, i)
		m.store64(b, i)
	}
	m.Reset()
	for i := range m.Mem {
		if m.Mem[i] != pristine[i] {
			t.Fatalf("byte %#x survived Reset", i)
		}
	}
}

// TestDirtyRingResetHygieneAcrossReuse is the regression shape of the PR 1
// pool bug at the memory layer: run, Reset, run again — the second run must
// start from bit-identical memory, including when the first run's final
// stores are still sitting unflushed in the ring at Reset time.
func TestDirtyRingResetHygieneAcrossReuse(t *testing.T) {
	m := dirtyTestMachine(DefaultGlobalBase + 8*dirtyPageSize)
	pristine := append([]byte(nil), m.Mem...)
	for round := 0; round < 3; round++ {
		// A handful of stores — fewer than the ring holds, so nothing
		// flushes until Reset itself does.
		for i := uint64(0); i < 10; i++ {
			m.store64(uint64(DefaultGlobalBase)+i*dirtyPageSize/2, ^i)
		}
		m.Reset()
		for i := range m.Mem {
			if m.Mem[i] != pristine[i] {
				t.Fatalf("round %d: byte %#x survived Reset", round, i)
			}
		}
	}
}

// TestDirtyRingRestoreForgetsLastPage: Restore, like Reset, must forget the
// lastPage dedup state. A page the previous run stored to last and the
// snapshot does not hold is clean after Restore; if the next run's first
// store hits it again and the dedup still remembers it, the page is never
// marked and its bytes survive the following Reset.
func TestDirtyRingRestoreForgetsLastPage(t *testing.T) {
	m := dirtyTestMachine(DefaultGlobalBase + 8*dirtyPageSize)
	pristine := append([]byte(nil), m.Mem...)
	s := m.Snapshot()
	addr := uint64(DefaultGlobalBase) + 5*dirtyPageSize
	m.store64(addr, 0xAAAA)
	m.Restore(s)
	m.store64(addr, 0xBBBB)
	m.Reset()
	for i := range m.Mem {
		if m.Mem[i] != pristine[i] {
			t.Fatalf("byte %#x survived Restore → store → Reset", i)
		}
	}
}
