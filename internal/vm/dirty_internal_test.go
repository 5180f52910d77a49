package vm

// White-box tests for dirty-page marking: the store path must never lose a
// page — not over many distinct pages, not for stores straddling a page
// boundary, not across Reset or Restore, and not in the fused site, which
// marks its save area once instead of once per push. Losing one means a
// reused machine leaks bytes from the previous trial into the next, silently
// corrupting campaign outcomes; these tests pin the invariant at the
// store64 and fused-site seams, below anything workload behavior can mask.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/vx"
)

// dirtyTestMachine builds a minimal machine with a large flat memory and no
// program (the store64/Reset seam does not need one).
func dirtyTestMachine(memSize int64) *Machine {
	img := &Image{MemSize: memSize}
	return New(img)
}

// wantPristine fails the test if any byte of m.Mem differs from pristine.
func wantPristine(t *testing.T, m *Machine, pristine []byte, after string) {
	t.Helper()
	for i := range m.Mem {
		if m.Mem[i] != pristine[i] {
			t.Fatalf("byte %#x (page %d) survived %s: got %#x want %#x",
				i, i>>dirtyPageShift, after, m.Mem[i], pristine[i])
		}
	}
}

func TestDirtyBitmapManyPagesAndStraddle(t *testing.T) {
	const pages = 300 // several bitmap words
	m := dirtyTestMachine(DefaultGlobalBase + (pages+2)*dirtyPageSize)
	pristine := append([]byte(nil), m.Mem...)

	// One aligned store per page plus a straddling store across every page
	// boundary: the second page of a straddle is the one a single test of
	// the store's own page would miss.
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
	wantPristine(t, m, pristine, "Reset")
}

func TestDirtyBitmapRepeatedStoresSamePage(t *testing.T) {
	m := dirtyTestMachine(DefaultGlobalBase + 8*dirtyPageSize)
	pristine := append([]byte(nil), m.Mem...)

	// Hammer one page (the already-marked hot case), then alternate between
	// two pages.
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
	wantPristine(t, m, pristine, "Reset")
}

// TestDirtyBitmapResetHygieneAcrossReuse is the regression shape of the PR 1
// pool bug at the memory layer: run, Reset, run again — every run must start
// from bit-identical memory.
func TestDirtyBitmapResetHygieneAcrossReuse(t *testing.T) {
	m := dirtyTestMachine(DefaultGlobalBase + 8*dirtyPageSize)
	pristine := append([]byte(nil), m.Mem...)
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 10; i++ {
			m.store64(uint64(DefaultGlobalBase)+i*dirtyPageSize/2, ^i)
		}
		m.Reset()
		wantPristine(t, m, pristine, "Reset")
	}
}

// TestDirtyBitmapRestoreThenStore: a page the previous run stored to and the
// snapshot does not hold is clean after Restore; the next run's first store
// to it must mark it again, or its bytes survive the following Reset.
func TestDirtyBitmapRestoreThenStore(t *testing.T) {
	m := dirtyTestMachine(DefaultGlobalBase + 8*dirtyPageSize)
	pristine := append([]byte(nil), m.Mem...)
	s := m.Snapshot()
	addr := uint64(DefaultGlobalBase) + 5*dirtyPageSize
	m.store64(addr, 0xAAAA)
	m.Restore(s)
	m.store64(addr, 0xBBBB)
	m.Reset()
	wantPristine(t, m, pristine, "Restore → store → Reset")
}

// TestDirtyBitmapFusedSiteSaveArea: per-store marking covered whatever a push
// touched for free; the fused site marks the save area's two end pages once
// and must get the same set — when the 40 bytes straddle a page boundary, and
// when SP is not 8-aligned so that one push straddles it by itself. The set
// is that of the same image with its head unfused, bit for bit.
func TestDirtyBitmapFusedSiteSaveArea(t *testing.T) {
	for _, c := range []struct {
		name string
		sp   uint64
	}{
		{"save area straddles a page boundary", 8*dirtyPageSize + 16},
		{"SP not 8-aligned, one push straddles", 5*dirtyPageSize + 4},
		{"SP not 8-aligned within a page", 6*dirtyPageSize + 99},
	} {
		run := func(fused bool) (*Machine, []byte) {
			img := SiteShape(nil)
			if !fused {
				UnfuseSites(img)
			}
			if got := FusedSites(img) == 1; got != fused {
				t.Fatalf("%s: fused=%v, want %v", c.name, got, fused)
			}
			m := New(img)
			pristine := append([]byte(nil), m.Mem...)
			m.BindHost(HostFn{Name: "sel", PreserveRegs: true, Fn: func(mm *Machine) { mm.Regs[vx.R0] = 0 }})
			m.Regs[vx.SP] = c.sp
			for _, r := range sitePushOrder {
				m.Regs[r] = ^uint64(0) // every pushed byte is non-zero
			}
			m.Regs[vx.RFLAGS] = ^uint64(0)
			m.Run()
			if m.Trap != TrapNone || m.Regs[vx.SP] != c.sp {
				t.Fatalf("%s: fused=%v: trap %v (%s), SP %#x", c.name, fused, m.Trap, m.TrapMsg, m.Regs[vx.SP])
			}
			return m, pristine
		}
		m, pristine := run(true)
		ref, _ := run(false)
		if !slices.Equal(m.dirty, ref.dirty) {
			t.Errorf("%s: fused site marked %x, unfused sequence %x", c.name, m.dirty, ref.dirty)
		}
		if !bytes.Equal(m.Mem, ref.Mem) {
			t.Errorf("%s: fused and unfused memory differ", c.name)
		}
		if lo := c.sp - siteSaveBytes; bytes.Contains(m.Mem[lo:c.sp], []byte{0}) {
			t.Fatalf("%s: the save area holds a zero byte; the test would not see a lost page", c.name)
		}
		m.Reset()
		wantPristine(t, m, pristine, "fused site → Reset")
	}
}
