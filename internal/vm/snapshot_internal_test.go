package vm

// White-box test for Snapshot.Matches, on a crafted state below anything a
// workload can mask: the answer decides whether a trial is finished without
// being executed, so a perturbation it misses is a wrong campaign outcome.

import (
	"testing"

	"repro/internal/vx"
)

// TestSnapshotMatches: true on the machine just snapshotted and on one just
// restored, false after any single perturbation of registers, FLAGS, PC,
// output or one byte of memory — inside an extent, around it on its page, on
// a dirty page the snapshot keeps no extent of, on a page only the machine
// dirtied, on either half of a store straddling two pages — and true again
// when a page the snapshot never saw is dirty but still all zeroes.
func TestSnapshotMatches(t *testing.T) {
	const (
		ps   = dirtyPageSize
		base = uint64(DefaultGlobalBase)
		size = DefaultGlobalBase + 16*ps
	)
	m := dirtyTestMachine(size)
	m.Regs[vx.R3], m.Regs[vx.RFLAGS], m.PC = 7, vx.FlagZ, 3
	m.InstrCount, m.Cycles = 100, 250
	m.Output = append(m.Output, 11, 22)
	m.store64(base+2*ps+512, 0x0102030405060708) // an extent in mid-page
	m.store64(base+5*ps-4, 0xAABBCCDD11223344)   // extents at the end of one page and the start of the next
	m.store64(base+7*ps+64, 0)                   // a dirty page the snapshot keeps no extent of
	s := m.Snapshot()
	if !s.Matches(m) {
		t.Fatal("the machine just snapshotted does not match")
	}

	r := dirtyTestMachine(size)
	for _, row := range []struct {
		name    string
		perturb func()
		want    bool
	}{
		{"nothing", func() {}, true},
		{"InstrCount and Cycles, which are not state", func() { r.InstrCount += 40; r.Cycles += 900 }, true},
		{"one register", func() { r.Regs[vx.R3] ^= 1 << 40 }, false},
		{"FLAGS", func() { r.Regs[vx.RFLAGS] ^= vx.FlagS }, false},
		{"PC", func() { r.PC++ }, false},
		{"a shorter output", func() { r.Output = r.Output[:1] }, false},
		{"a longer output", func() { r.Output = append(r.Output, 33) }, false},
		{"one output word", func() { r.Output[1] ^= 1 }, false},
		{"a byte inside an extent", func() { r.Mem[base+2*ps+515] ^= 1 }, false},
		{"a byte before the extent on its page", func() { r.Mem[base+2*ps+3] = 1 }, false},
		{"a byte behind the extent on its page", func() { r.Mem[base+2*ps+4000] = 1 }, false},
		{"a byte of the extent a store straddled onto the next page", func() { r.Mem[base+5*ps+1] ^= 1 }, false},
		{"a byte on a dirty page without an extent", func() { r.Mem[base+7*ps+9] = 1 }, false},
		{"a byte on a page only the machine dirtied", func() { r.store64(base+10*ps+8, 1) }, false},
		{"a straddling store, non-zero on its first page only", func() { r.store64(base+12*ps-4, 1) }, false},
		{"a straddling store, non-zero on its second page only", func() { r.store64(base+12*ps-4, 0xFF<<56) }, false},
		{"zeroes stored to a page only the machine dirtied", func() { r.store64(base+10*ps+8, 0) }, true},
	} {
		r.Restore(s)
		row.perturb()
		if got := s.Matches(r); got != row.want {
			t.Errorf("restored, then %s: Matches = %v, want %v", row.name, got, row.want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Matches accepted a machine of another address space; Restore panics on it")
		}
	}()
	s.Matches(dirtyTestMachine(DefaultGlobalBase + 100*ps))
}
