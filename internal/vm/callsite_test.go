package vm_test

// Differential tests for the call superinstruction (site.go): on LLFI images
// the hook-free loop executes an injectFault call that has nothing to do —
// its two argument moves, the inert call with its C-ABI clobber, and the move
// of the value out of R0 or F0 — in one dispatch. Everything observable must
// stay what the same image runs to with every call head unfused and what
// RunStepped produces, including when a budget, a fire point, a branch into
// the sequence, a call with work or an unbound host cuts the four
// instructions anywhere.

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/llfi"
	"repro/internal/vm"
	"repro/internal/vx"
	"repro/internal/workloads"
)

// callDiff runs every scenario three ways: Run on the image, Run on a clone
// with every call head unfused, and RunStepped.
type callDiff struct {
	fused, plain *siteDiff
}

func newCallDiff(t *testing.T, bin *campaign.Binary) *callDiff {
	unfused := bin.Img.Clone()
	vm.UnfuseCalls(unfused)
	if n := len(vm.CallHeads(unfused)); n != 0 {
		t.Fatalf("%s: %d call heads still fused in the unfused clone", bin.App.Name, n)
	}
	d := &callDiff{fused: newSiteDiff(t, bin), plain: newSiteDiff(t, bin)}
	d.plain.fast.Img = unfused
	return d
}

func (d *callDiff) check(label string, setup func(m *vm.Machine) func() any) {
	d.fused.t.Helper()
	d.fused.check(label, setup)
	d.plain.check(label+" (unfused)", setup)
}

// bindLLFI binds a never-firing injectFault runtime and reports its count.
func bindLLFI(m *vm.Machine) func() any {
	lib := &llfi.Lib{Target: -1, RNG: fault.NewRNG(1)}
	lib.Bind(m)
	return func() any { return lib.Count }
}

// callAnchor is one dynamic execution of a fused call head in the golden run.
type callAnchor struct {
	at    int64 // InstrCount before the head executes
	head  int32
	count int64 // the runtime's count before the call: the call's index
	ret   int64 // InstrCount before some RET executes, at or after at
}

// isF64Call reports whether the fused call at head calls the f64 host.
func isF64Call(img *vm.Image, head int32) bool {
	return img.HostFns[img.Instrs[head+2].HostIdx] == llfi.HostFaultF64
}

// findCallAnchors records, for each threshold, the first fused head of the
// f64 or the integer form (and the first RET) the golden run executes at or
// after that many instructions. It returns fewer anchors than thresholds
// when the run has no more calls of that form.
func findCallAnchors(bin *campaign.Binary, f64 bool, thresholds ...int64) []callAnchor {
	heads := make(map[int32]bool)
	for _, h := range vm.CallHeads(bin.Img) {
		heads[h] = isF64Call(bin.Img, h) == f64
	}
	var out []callAnchor
	cur := callAnchor{at: -1, ret: -1}
	m := bin.NewMachine()
	lib := &llfi.Lib{Target: -1}
	lib.Bind(m)
	everyInstr(m, func(pc int32, in *vm.Inst) bool {
		before := m.InstrCount - 1
		if before < thresholds[len(out)] {
			return true
		}
		if heads[pc] && cur.at < 0 {
			cur.at, cur.head, cur.count = before, pc, lib.Count
		}
		if in.Op == vx.RET && cur.at >= 0 && cur.ret < 0 {
			cur.ret = before
		}
		if cur.at >= 0 && cur.ret >= 0 {
			out = append(out, cur)
			cur = callAnchor{at: -1, ret: -1}
		}
		return len(out) < len(thresholds)
	})
	return out
}

// TestCallFusionCoversEveryLLFICall: over the 14 LLFI golden runs, every
// dynamic injectFault call of the call shape is reached by fallthrough from
// its fused head. A golden run's calls have no work (no target, no mark), so
// the fused head runs each of them whole. A static call sits behind a fused
// head exactly when its four instructions have the call shape, checked on
// the decoded instructions; the few that do not (a value loaded into R2, a
// value nothing reads) run unfused, and together they are under 0.1 % of the
// dynamic calls.
func TestCallFusionCoversEveryLLFICall(t *testing.T) {
	var allDyn, allFused int64
	for _, name := range workloads.Names() {
		bin := buildBin(t, name, campaign.LLFI)
		ins := bin.Img.Instrs
		calls := llfi.SiteMap(bin.Img)
		fused := make(map[int32]bool)
		for _, h := range vm.CallHeads(bin.Img) {
			fused[h] = true
		}
		var static, staticFused int
		for pc, ok := range calls {
			if !ok {
				continue
			}
			head := int32(pc) - 2
			static++
			if fused[head] {
				staticFused++
			}
			if fused[head] != callShaped(ins, len(bin.Img.HostFns), head) {
				t.Errorf("%s: call at %d: fused head %v, call shape %v", name, pc, fused[head], !fused[head])
			}
		}

		m := bin.NewMachine()
		count := bindGolden(m, campaign.LLFI)
		var dyn, dynFused, dynShaped int64
		prev := [2]int32{-1, -1}
		everyInstr(m, func(pc int32, _ *vm.Inst) bool {
			if calls[pc] {
				dyn++
				if fused[pc-2] {
					dynShaped++
					if prev == [2]int32{pc - 2, pc - 1} {
						dynFused++
					}
				}
			}
			prev = [2]int32{prev[1], pc}
			return true
		})
		t.Logf("%-8s %3d of %3d static calls fused; %6d of %6d dynamic calls through a fused head",
			name, staticFused, static, dynFused, dyn)
		if static == 0 || dyn == 0 || count() != dyn || dynFused != dynShaped {
			t.Errorf("%s: %d dynamic calls (runtime count %d); %d of the %d at a fused head reached it by fallthrough",
				name, dyn, count(), dynFused, dynShaped)
		}
		allDyn += dyn
		allFused += dynFused
	}
	t.Logf("all apps: %d of %d dynamic injectFault calls through a fused head (%.3f %%)",
		allFused, allDyn, 100*float64(allFused)/float64(allDyn))
	if allFused*1000 < allDyn*999 {
		t.Errorf("only %d of %d dynamic calls fused, want at least 99.9 %%", allFused, allDyn)
	}
}

// TestCallFusedMatchesSteppedAtEverySeam cuts, bends and interrupts one
// dynamic call per anchor, of the integer and of the f64 form, in every way
// the fused case has a check for.
func TestCallFusedMatchesSteppedAtEverySeam(t *testing.T) {
	forms := [2]int{}
	for _, name := range diffApps(t) {
		bin := buildBin(t, name, campaign.LLFI)
		d := newCallDiff(t, bin)
		for i, f64 := range []bool{false, true} {
			for _, a := range findCallAnchors(bin, f64, 300, 30_000) {
				forms[i]++
				callBudgetCases(d, a)
				callFireCases(d, a)
				callReturnCases(d, a)
				callLibraryCases(d, a)
			}
		}

		// No runtime bound: the head's move still happens, the next one too,
		// and the CALLQ traps.
		fresh := newCallDiff(t, bin)
		fresh.check("unbound host", func(*vm.Machine) func() any { return nil })
		if fresh.fused.fast.Trap != vm.TrapIllegal {
			t.Errorf("%s: unbound injectFault ended with trap %v", name, fresh.fused.fast.Trap)
		}
	}
	if forms[0] == 0 || forms[1] == 0 {
		t.Errorf("anchors: %d of the integer form, %d of the f64 form; want both", forms[0], forms[1])
	}
}

// The budget runs out before each of the four instructions and right behind
// them.
func callBudgetCases(d *callDiff, a callAnchor) {
	for off := int64(0); off <= 4; off++ {
		d.check(fmt.Sprintf("call %d: budget at head+%d", a.head, off), func(m *vm.Machine) func() any {
			m.Budget = a.at + off
			return bindLLFI(m)
		})
	}
}

// A fire point is due before each of the four instructions and behind the
// last, flipping the value on its way (R2 for the integer form, F0 for f64)
// and the id; once also stepping an observer over the next three
// instructions before the fast loop resumes.
func callFireCases(d *callDiff, a callAnchor) {
	for off := int64(0); off <= 4; off++ {
		for _, observe := range []bool{false, true} {
			d.check(fmt.Sprintf("call %d: fire at head+%d observe=%v", a.head, off, observe), func(m *vm.Machine) func() any {
				m.Budget = a.at + tailBudget
				report := bindLLFI(m)
				var seen [3]int64
				n := 0
				m.ArmFire(&vm.FirePoint{At: a.at + off, PC: a.head,
					Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
						seen = [3]int64{mm.InstrCount, int64(mm.PC), mm.Cycles}
						mm.FlipBit(vx.R2, 5)
						mm.FlipBit(vx.F0, 9)
						mm.FlipBit(vx.R1, 1)
						if observe {
							everyInstr(mm, func(int32, *vm.Inst) bool {
								mm.Cycles += 3
								n++
								return n < 3
							})
						}
					}})
				return func() any { return [3]any{report(), seen, n} }
			})
		}
	}
}

// A corrupted return address lands on each of the four slots: slot 1 is the
// fused head reached by a control transfer, slots 2..4 kept their own uops.
func callReturnCases(d *callDiff, a callAnchor) {
	for k := int32(0); k < 4; k++ {
		land := a.head + k
		d.check(fmt.Sprintf("call %d: RET lands on slot %d", a.head, k+1), func(m *vm.Machine) func() any {
			m.Budget = a.ret + tailBudget
			m.ArmFire(&vm.FirePoint{At: a.ret, PC: a.head,
				Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
					sp := mm.Regs[vx.SP]
					binary.LittleEndian.PutUint64(mm.Mem[sp:], uint64(land))
					mm.MarkMemWritten(sp, 8)
				}})
			return bindLLFI(m)
		})
	}
}

// The call has work: it is the target, it reaches a mark, or a counted host
// is due there and halts, moves the budget or arms a fire point. Each runs
// on the unfused slots behind the fused head's move.
func callLibraryCases(d *callDiff, a callAnchor) {
	type mark struct {
		Count, At, Cycles int64
		PC                int32
		Regs              [vx.NumRegs]uint64
	}
	for _, c := range []struct {
		label  string
		target int64
		marks  []int64
	}{
		{"is the target", a.count, nil},
		{"reaches a mark", -1, []int64{a.count + 1}},
		{"is the target and reaches a mark", a.count, []int64{a.count + 1, a.count + 3}},
	} {
		d.check(fmt.Sprintf("call %d %s", a.head, c.label), func(m *vm.Machine) func() any {
			m.Budget = a.at + tailBudget
			var marks []mark
			lib := &llfi.Lib{Target: c.target, RNG: fault.NewRNG(uint64(a.count)), Marks: c.marks}
			lib.AtMark = func(n int64) { marks = append(marks, mark{n, m.InstrCount, m.Cycles, m.PC, m.Regs}) }
			lib.Bind(m)
			return func() any { return [4]any{lib.Triggered, lib.Count, lib.Rec, marks} }
		})
	}
	due := func(label string, act func(mm *vm.Machine)) {
		d.check(fmt.Sprintf("call %d: a due counted host %s", a.head, label), func(m *vm.Machine) func() any {
			m.Budget = a.at + tailBudget
			c := &countingHost{event: a.count, act: func(mm *vm.Machine, _ *countingHost) { act(mm) }}
			counted(m, campaign.LLFI, c)
			return c.report
		})
	}
	due("halts", func(mm *vm.Machine) { mm.Halted, mm.ExitCode = true, 3 })
	for k := int64(0); k <= 4; k++ {
		due(fmt.Sprintf("sets Budget to now+%d", k), func(mm *vm.Machine) { mm.Budget = mm.InstrCount + k })
		due(fmt.Sprintf("arms a fire point at now+%d", k), func(mm *vm.Machine) {
			mm.ArmFire(&vm.FirePoint{At: mm.InstrCount + k, PC: a.head,
				Fn: func(fm *vm.Machine, _ int32, _ *vm.Inst) { fm.FlipBit(vx.R9, 2) }})
		})
	}
}

// TestCallMatcherRejectsNearMisses: both emitted forms fuse, and so do the
// other last slots the matcher takes; every other one-instruction departure
// stays unfused. Each runs like the stepped reference, with a C-ABI counting
// host that is never due and with one that is due at once.
func TestCallMatcherRejectsNearMisses(t *testing.T) {
	const abs = vm.DefaultGlobalBase + 64
	load := func(in *vm.Inst) {
		in.BKind, in.MemBase, in.MemIndex, in.MemDisp = vm.OpMem, vx.NoReg, vx.NoReg, abs
	}
	store := func(in *vm.Inst, base vx.Reg, disp int64) {
		in.AKind, in.MemBase, in.MemIndex, in.MemDisp = vm.OpMem, base, vx.NoReg, disp
	}
	type shape struct {
		name string
		f64  bool
		edit func(ins []vm.Inst)
	}
	fuses := []shape{
		{"emitted i64 shape", false, nil},
		{"emitted f64 shape", true, nil},
		{"last slot takes an immediate", false, func(ins []vm.Inst) { ins[3].BKind, ins[3].Imm = vm.OpImm, 5 }},
		{"last slot spills the value", false, func(ins []vm.Inst) { store(&ins[3], vx.R9, 64) }},
		{"f64: last slot spills the value", true, func(ins []vm.Inst) { store(&ins[3], vx.NoReg, abs) }},
		{"last slot stores below the globals", false, func(ins []vm.Inst) { store(&ins[3], vx.NoReg, 8) }},
		{"last slot stores through a clobbered base", false, func(ins []vm.Inst) { store(&ins[3], vx.R4, 8) }},
	}
	misses := []shape{
		{"first move loads", false, func(ins []vm.Inst) { load(&ins[0]) }},
		{"first move is an add", false, func(ins []vm.Inst) { ins[0].Op = vx.ADDQ }},
		{"second move loads", false, func(ins []vm.Inst) { load(&ins[1]) }},
		{"second move stores", false, func(ins []vm.Inst) { store(&ins[1], vx.NoReg, abs) }},
		{"second move is a NOP", false, func(ins []vm.Inst) { ins[1] = vm.Inst{Op: vx.NOP, HostIdx: -1} }},
		{"direct call", false, func(ins []vm.Inst) { ins[2].HostIdx, ins[2].Target = -1, 4 }},
		{"last slot loads", false, func(ins []vm.Inst) { load(&ins[3]) }},
		{"last slot stores an immediate", false, func(ins []vm.Inst) {
			store(&ins[3], vx.NoReg, abs)
			ins[3].BKind, ins[3].Imm = vm.OpImm, 5
		}},
		{"last slot is a HALT", false, func(ins []vm.Inst) { ins[3] = vm.Inst{Op: vx.HALT, HostIdx: -1} }},
		{"f64: first move is a NOP", true, func(ins []vm.Inst) { ins[0] = vm.Inst{Op: vx.NOP, HostIdx: -1} }},
		{"f64: last slot converts", true, func(ins []vm.Inst) { ins[3].Op = vx.CVTTSD2SI }},
		{"f64: last slot adds", true, func(ins []vm.Inst) { ins[3].Op = vx.ADDSD }},
	}
	run := func(img *vm.Image, f64 bool, event int64, stepped bool) (machineState, any) {
		m := vm.New(img)
		m.Budget = 100
		ret := vx.R2
		if f64 {
			ret = vx.R0
		}
		c := &countingHost{event: event}
		c.bind(m, "inj", false, 200, ret)
		m.Regs[vx.R3], m.Regs[vx.F0], m.Regs[vx.R4], m.Regs[vx.R9], m.Regs[vx.RFLAGS] = 33, 0x4000_0000_0000_0000, vm.DefaultGlobalBase, vm.DefaultGlobalBase, vx.FlagC
		if stepped {
			m.RunStepped()
		} else {
			m.Run()
		}
		return snapshot(m), c.report()
	}
	same := func(name string, img *vm.Image, f64 bool) {
		for _, event := range []int64{-1, 0} {
			fs, fc := run(img, f64, event, false)
			rs, rc := run(img, f64, event, true)
			if !equalStates(fs, rs) || fmt.Sprint(fc) != fmt.Sprint(rc) {
				t.Errorf("%s, event %d: fast run diverged from RunStepped:\nfast: %+v %v\nref:  %+v %v", name, event, fs, fc, rs, rc)
			}
		}
	}

	for _, c := range fuses {
		img := vm.CallShape(c.f64, c.edit)
		if n := len(vm.CallHeads(img)); n != 1 {
			t.Errorf("%s: %d fused calls, want 1", c.name, n)
		}
		same(c.name, img, c.f64)
	}
	for _, c := range misses {
		img := vm.CallShape(c.f64, c.edit)
		if n := len(vm.CallHeads(img)); n != 0 {
			t.Errorf("%s: fused", c.name)
		}
		same(c.name, img, c.f64)
	}
}

// TestCallRepredecodeUnfuses: a mutation of any of a call's four slots
// demotes its head to the plain move, the mutated image runs like the
// stepped reference, and the call stays unfused after the slot is restored —
// before a run and from a fire point in the middle of one. Every check starts
// from a fresh clone, so each slot demotes a fused call.
func TestCallRepredecodeUnfuses(t *testing.T) {
	bin := buildBin(t, "HPCCG", campaign.LLFI)
	a := findCallAnchors(bin, false, 2000)[0]
	total := len(vm.CallHeads(bin.Img))
	d := newSiteDiff(t, bin)
	var img *vm.Image
	fresh := func() {
		img = bin.Img.Clone()
		if n := len(vm.CallHeads(img)); n != total {
			t.Fatalf("clone fuses %d of %d calls", n, total)
		}
		d.fast.Img, d.ref.Img = img, img
	}
	unfused := func(when string, k int32) {
		heads := vm.CallHeads(img)
		for _, h := range heads {
			if h == a.head {
				t.Errorf("slot %d %s: head %d still fused", k+1, when, a.head)
			}
		}
		if len(heads) != total-1 {
			t.Errorf("slot %d %s: %d fused calls, want %d", k+1, when, len(heads), total-1)
		}
	}

	for k := int32(0); k < 4; k++ {
		pc := a.head + k
		orig := bin.Img.Instrs[pc].Op
		mutate := func(op vx.Op) {
			img.Instrs[pc].Op = op
			img.Repredecode(pc)
		}

		fresh()
		mutate(vx.NOP)
		unfused("corrupted", k)
		d.check(fmt.Sprintf("slot %d corrupted before the run", k+1), func(m *vm.Machine) func() any {
			m.Budget = a.at + tailBudget
			return bindLLFI(m)
		})
		mutate(orig)
		unfused("restored", k)

		fresh()
		d.check(fmt.Sprintf("slot %d corrupted mid-run", k+1), func(m *vm.Machine) func() any {
			m.Budget = a.at + tailBudget
			m.ArmFire(&vm.FirePoint{At: a.at, PC: pc,
				Fn: func(*vm.Machine, int32, *vm.Inst) { mutate(vx.NOP) }})
			report := bindLLFI(m)
			return func() any {
				mutate(orig)
				return report()
			}
		})
		unfused("after the mid-run corruption", k)
	}
	if n := len(vm.CallHeads(bin.Img)); n != total {
		t.Errorf("mutating the clone left the original with %d of %d fused calls", n, total)
	}
}
