package vm_test

// A native fuzz target for Snapshot, Restore and Matches on a machine that
// hops between images, as the campaign's machine pool lends it: it ran image
// A for a while — a stray store and a register flip on top, at the fuzzer's
// choice — and is rebound to image B, which does not sweep its memory. The
// images are real: CG and FT under the LLFI, REFINE and PINFI pipelines. Run
// it with
//
//	go test -run '^$' -fuzz '^FuzzSnapshotRestore$' -fuzztime=10s -fuzzminimizetime=100x ./internal/vm/

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/vm"
	"repro/internal/vx"
)

// fuzzImage is one real image with snapshots of its golden run: right after
// Reset and at four boundaries spread over the run.
type fuzzImage struct {
	bin    *campaign.Binary
	length int64 // golden-run instructions
	snaps  []*vm.Snapshot
}

// stray applies the perturbations kind selects to m: bit 0 an 8-byte store
// of val at an address derived from addr, bit 1 a flip of bit bit of
// register reg.
func stray(m *vm.Machine, kind uint8, addr uint32, val uint64, reg, bit uint8) {
	if kind&1 != 0 {
		a := vm.DefaultGlobalBase + uint64(addr)%uint64(len(m.Mem)-8-vm.DefaultGlobalBase)
		binary.LittleEndian.PutUint64(m.Mem[a:], val)
		m.MarkMemWritten(a, 8)
	}
	if kind&2 != 0 {
		m.FlipBit(vx.Reg(reg%vx.NumRegs), uint(bit))
	}
}

// sameState is Matches spelled out: registers, PC, output and every byte of
// memory.
func sameState(m, ref *vm.Machine) bool {
	return m.Regs == ref.Regs && m.PC == ref.PC && slices.Equal(m.Output, ref.Output) && bytes.Equal(m.Mem, ref.Mem)
}

func FuzzSnapshotRestore(f *testing.F) {
	var imgs []fuzzImage
	for _, app := range []string{"CG", "FT"} {
		for _, tool := range campaign.Tools {
			bin := buildBin(f, app, tool)
			probe := bin.NewMachine()
			bindGolden(probe, tool)
			probe.Run()
			n := probe.InstrCount
			snaps, _ := snapshotsAt(bin, []int64{1, n / 3, 2 * n / 3, n - 1})
			imgs = append(imgs, fuzzImage{bin, n, append([]*vm.Snapshot{bin.NewMachine().Snapshot()}, snaps...)})
		}
	}
	// a and b index CG/LLFI, CG/REFINE, CG/PINFI, FT/LLFI, FT/REFINE, FT/PINFI.
	f.Add(uint8(1), uint8(5), uint32(40_000), uint8(2), uint8(0), uint8(0), uint32(0), uint64(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(2), uint32(1<<30), uint8(4), uint8(3), uint8(0), uint32(3<<20), uint64(0xDEAD), uint8(vx.SP), uint8(9))
	f.Add(uint8(4), uint8(0), uint32(777), uint8(0), uint8(1), uint8(1), uint32(12345), uint64(1), uint8(vx.R1), uint8(0))
	f.Add(uint8(3), uint8(1), uint32(90_000), uint8(3), uint8(2), uint8(2), uint32(4096), uint64(0), uint8(vx.RFLAGS), uint8(1))

	f.Fuzz(func(t *testing.T, a, b uint8, steps uint32, snap, before, after uint8, addr uint32, val uint64, reg, bit uint8) {
		src, dst := imgs[int(a)%len(imgs)], imgs[int(b)%len(imgs)]
		s := dst.snaps[int(snap)%len(dst.snaps)]

		m := src.bin.NewMachine()
		bindGolden(m, src.bin.Tool)
		m.Budget = int64(steps)%src.length + 1
		m.Run()
		stray(m, before, addr, val, reg, bit)
		m.Rebind(dst.bin.Img)

		ref := dst.bin.NewMachine()
		ref.Restore(s)
		if s.Matches(m) != sameState(m, ref) {
			t.Fatalf("rebound, not restored: Matches = %v, the whole-memory compare %v", s.Matches(m), sameState(m, ref))
		}

		m.Restore(s)
		if !sameState(m, ref) || m.InstrCount != ref.InstrCount || m.Cycles != ref.Cycles ||
			!slices.Equal(vm.DirtyPages(m), vm.DirtyPages(ref)) {
			t.Fatal("Restore on a rebound machine is not Restore on a fresh one: registers, PC, output, memory, accounting or dirty pages differ")
		}
		stray(m, after, addr, val, reg, bit)
		if s.Matches(m) != sameState(m, ref) {
			t.Fatalf("restored, then perturbed (%d): Matches = %v, the whole-memory compare %v", after&3, s.Matches(m), sameState(m, ref))
		}
	})
}
