package vm_test

// Native fuzz targets on real images (CG and FT, built by the test):
//
//   - FuzzSnapshotRestore: Snapshot, Restore and Matches on a machine that
//     hops between images, as the campaign's machine pool lends it: it ran
//     image A for a while — a stray store and a register flip on top, at the
//     fuzzer's choice — and is rebound to image B, which does not sweep its
//     memory. Images under the LLFI, REFINE and PINFI pipelines.
//   - FuzzPredecode: the predecoder on a mutated REFINE, PINFI or LLFI
//     image. Every fused site must have the site shape, every site that may
//     skip its writes clear paths to the next site (none after a
//     Repredecode), every slot the run counts of the run spelled out on the
//     instructions (after a Repredecode too), and the fast loop must run the
//     image exactly like the reference decoder.
//
// Run them with
//
//	go test -run '^$' -fuzz '^FuzzSnapshotRestore$' -fuzztime=10s -fuzzminimizetime=100x ./internal/vm/
//	go test -run '^$' -fuzz '^FuzzPredecode$' -fuzztime=10s -fuzzminimizetime=100x ./internal/vm/

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

// predecodeBudget bounds every FuzzPredecode run: a mutated image may loop
// forever, and the stepped reference has to stay cheap.
const predecodeBudget = 1 << 16

// predecodeImage is one seed image and the PCs its golden run executes
// within predecodeBudget, which is where a mutation is seen.
type predecodeImage struct {
	bin  *campaign.Binary
	live []int32
}

// siteShaped is the site shape spelled out on the decoded instructions, as
// an independent check of the predecoder's matcher: what the fused path
// assumes the 16 instructions at head and post do.
func siteShaped(ins []vm.Inst, hosts int, head, post int32) bool {
	if head < 0 || int(head)+10 > len(ins) || post < 0 || int(post)+6 > len(ins) {
		return false
	}
	abs := func(in *vm.Inst) bool { return in.MemBase == vx.NoReg && in.MemIndex == vx.NoReg }
	reg := func(in *vm.Inst, op vx.Op, r vx.Reg) bool {
		return in.Op == op && in.AKind == vm.OpReg && in.AReg == r
	}
	// The VM runs MOVSD as MOVQ: either moves the site id and reloads SP.
	mov := func(in *vm.Inst, r vx.Reg) bool { return reg(in, vx.MOVQ, r) || reg(in, vx.MOVSD, r) }
	pre, fin := ins[head:head+10], ins[post:post+6]
	ok := pre[0].Op == vx.MOVQ && pre[0].Instrumented && pre[0].AKind == vm.OpMem && abs(&pre[0]) &&
		pre[0].BKind == vm.OpReg && pre[0].BReg == vx.SP &&
		pre[1].Op == vx.PUSHF &&
		reg(&pre[2], vx.PUSHQ, vx.R0) && reg(&pre[3], vx.PUSHQ, vx.R1) &&
		reg(&pre[4], vx.PUSHQ, vx.R2) && reg(&pre[5], vx.PUSHQ, vx.R3) &&
		mov(&pre[6], vx.R1) && (pre[6].BKind == vm.OpImm || pre[6].BKind == vm.OpFImm) &&
		pre[7].Op == vx.CALLQ && pre[7].HostIdx >= 0 && int(pre[7].HostIdx) < hosts &&
		reg(&pre[8], vx.TESTQ, vx.R0) && pre[8].BKind == vm.OpReg && pre[8].BReg == vx.R0 &&
		pre[9].Op == vx.JCC && pre[9].Cond == vx.CondE && pre[9].Target == post
	for i, r := range []vx.Reg{vx.R3, vx.R2, vx.R1, vx.R0} {
		ok = ok && fin[i].Op == vx.POPQ && fin[i].AReg == r
	}
	return ok && fin[4].Op == vx.POPF &&
		mov(&fin[5], vx.SP) && fin[5].BKind == vm.OpMem && abs(&fin[5]) && fin[5].MemDisp == pre[0].MemDisp
}

// stepCycles is the cycles Step charges for a straight-line instruction:
// its opcode's cost and a surcharge per memory access of an operand it
// reads or writes through the operand decoder.
func stepCycles(in *vm.Inst) int {
	c := int(in.Op.CycleCost())
	mem := func(k vm.OpndKind, n int) {
		if k == vm.OpMem {
			c += n * vx.MemExtraCycles
		}
	}
	switch in.Op {
	case vx.MOVQ, vx.MOVSD, vx.CMPQ, vx.TESTQ: // A written or compared
		mem(in.AKind, 1)
	case vx.ADDQ, vx.SUBQ, vx.IMULQ, vx.ANDQ, vx.ORQ, vx.XORQ, vx.SHLQ, vx.SHRQ, vx.SARQ,
		vx.IDIVQ, vx.IREMQ: // A read and written
		mem(in.AKind, 2)
	case vx.ADDSD, vx.SUBSD, vx.MULSD, vx.DIVSD, vx.MINSD, vx.MAXSD, vx.SQRTSD,
		vx.ANDPD, vx.XORPD, vx.CVTSI2SD, vx.CVTTSD2SI, vx.UCOMISD: // A a register
	default: // no operand through the decoder
		return c
	}
	mem(in.BKind, 1)
	return c
}

// checkRuns holds every slot's run counts to the run spelled out on the
// decoded instructions, as an independent check of the predecoder's count
// pass: walking forward from the slot, a JMP, JCC, RET or CALLQ, a fused
// site head and a generic slot (charged its opcode's cost alone: its
// surcharges come as it runs) end the run at themselves, and the end of the
// stream ends it.
func checkRuns(t *testing.T, img *vm.Image) {
	t.Helper()
	ins := img.Instrs
	heads, _ := vm.SiteHeads(img)
	ends := make(map[int32]bool)
	for _, h := range heads {
		ends[h] = true
	}
	generic := make(map[int32]bool)
	for pc, in := range ins {
		_, _, _, generic[int32(pc)] = vm.Slot(img, int32(pc))
		switch in.Op {
		case vx.JMP, vx.JCC, vx.RET, vx.CALLQ:
			ends[int32(pc)] = true
		}
	}
	for pc := range ins {
		var rem, cy int
		for p := pc; p < len(ins); p++ {
			in := &ins[p]
			if generic[int32(p)] {
				rem, cy = rem+1, cy+int(in.Op.CycleCost())
				break
			}
			rem, cy = rem+1, cy+stepCycles(in)
			if ends[int32(p)] {
				break
			}
		}
		if _, r, c, _ := vm.Slot(img, int32(pc)); r != rem || c != cy {
			t.Fatalf("slot %d (%v): run of %d instructions, %d cycles; spelled out on the instructions, %d and %d",
				pc, ins[pc].Op, r, c, rem, cy)
		}
	}
}

// mutate applies one 9-byte mutation — a field selector, a PC among the
// image's live ones and a value — to a clone's instruction stream. Every
// mutation keeps the instruction decodable: registers stay inside the
// register file, branch targets inside the stream and host indexes among
// the imported ones.
func mutate(img *vm.Image, live []int32, field uint8, at, val uint32) int32 {
	pc := live[int(at%uint32(len(live)))]
	in := &img.Instrs[pc]
	switch field % 5 {
	case 0:
		in.Op = vx.Op(val)
	case 1:
		r := vx.Reg(val % vx.NumRegs)
		switch val >> 8 & 3 {
		case 0:
			in.AReg = r
		case 1:
			in.BReg = r
		case 2:
			in.MemBase = r
		default:
			in.MemIndex = r
		}
	case 2:
		in.Imm = int64(int32(val))
	case 3:
		in.Target = int32(val % uint32(len(img.Instrs)))
	default:
		if n := uint32(len(img.HostFns)); n > 0 {
			in.HostIdx = int32(val % n)
		}
	}
	return pc
}

// bindPredecode binds the golden run's hosts. A mutated REFINE image can
// call setupFI, so its library gets an RNG.
func bindPredecode(m *vm.Machine, tool campaign.Tool) {
	if tool == campaign.REFINE {
		bindProfile(m)
	} else {
		bindGolden(m, tool)
	}
}

func FuzzPredecode(f *testing.F) {
	var imgs []predecodeImage
	for _, app := range []string{"CG", "FT"} {
		for _, tool := range []campaign.Tool{campaign.REFINE, campaign.PINFI, campaign.LLFI} {
			bin := buildBin(f, app, tool)
			m := bin.NewMachine()
			bindPredecode(m, tool)
			m.Budget = predecodeBudget
			seen := make([]bool, len(bin.Img.Instrs))
			var live []int32
			for !m.Halted {
				if pc := m.PC; pc >= 0 && int(pc) < len(seen) && !seen[pc] {
					seen[pc] = true
					live = append(live, pc)
				}
				m.Step()
			}
			imgs = append(imgs, predecodeImage{bin, live})
		}
	}
	// which indexes CG/REFINE, CG/PINFI, CG/LLFI, FT/REFINE, FT/PINFI,
	// FT/LLFI; each 9 bytes of plan are one mutation: field, PC (4 bytes),
	// value (4 bytes).
	f.Add(uint8(0), false, []byte{})
	f.Add(uint8(0), false, []byte{0, 7, 0, 0, 0, byte(vx.NOP), 0, 0, 0})
	f.Add(uint8(3), true, []byte{1, 40, 0, 0, 0, byte(vx.SP), 2, 0, 0, 3, 9, 1, 0, 0, 17, 0, 0, 0})
	f.Add(uint8(1), true, []byte{2, 3, 0, 0, 0, 0, 0, 0, 0x80, 4, 200, 0, 0, 0, 1, 0, 0, 0})
	f.Add(uint8(4), false, []byte{0, 100, 0, 0, 0, byte(vx.RET), 0, 0, 0, 1, 100, 0, 0, 0, 0, 1, 0, 0})
	f.Add(uint8(2), false, []byte{})
	f.Add(uint8(2), true, []byte{1, 12, 0, 0, 0, byte(vx.R0), 1, 0, 0, 4, 13, 0, 0, 0, 2, 0, 0, 0})
	f.Add(uint8(5), false, []byte{0, 30, 0, 0, 0, byte(vx.LEAQ), 0, 0, 0, 2, 31, 0, 0, 0, 9, 0, 0, 0})

	f.Fuzz(func(t *testing.T, which uint8, viaRepredecode bool, plan []byte) {
		src := imgs[int(which)%len(imgs)]
		img := src.bin.Img.Clone()
		if viaRepredecode {
			vm.FusedSites(img) // predecode first, then patch slot by slot
		}
		mutated := false
		for i := 0; i+9 <= len(plan) && i < 4*9; i += 9 {
			pc := mutate(img, src.live, plan[i], binary.LittleEndian.Uint32(plan[i+1:]), binary.LittleEndian.Uint32(plan[i+5:]))
			if viaRepredecode {
				img.Repredecode(pc)
			}
			mutated = true
		}
		if el := checkElided(t, img); viaRepredecode && mutated && len(el) > 0 {
			t.Fatalf("%d sites still skip their writes after Repredecode", len(el))
		}
		checkRuns(t, img)

		heads, posts := vm.SiteHeads(img)
		for i, head := range heads {
			if !siteShaped(img.Instrs, len(img.HostFns), head, posts[i]) {
				t.Fatalf("fused a site at %d (post %d) that does not have the site shape", head, posts[i])
			}
		}

		run := func(stepped bool) (machineState, string) {
			m := src.bin.NewMachine()
			m.Img = img
			m.Reset()
			bindPredecode(m, src.bin.Tool)
			m.Budget = predecodeBudget
			if stepped {
				m.RunStepped()
			} else {
				m.Run()
			}
			return snapshot(m), m.TrapMsg
		}
		fast, fastMsg := run(false)
		ref, refMsg := run(true)
		if !equalStates(fast, ref) || fastMsg != refMsg {
			t.Fatalf("Run diverged from RunStepped:\nRun:        %+v %q\nRunStepped: %+v %q", fast, fastMsg, ref, refMsg)
		}
	})
}
