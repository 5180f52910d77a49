package vm_test

// Differential tests for LLFI's injectFault calls: each is four instructions
// around one host call — two argument moves, the inert uCALLH with its C-ABI
// clobber, and the move of the value out of R0 or F0 — which the hook-free
// loop runs as ordinary uops. Everything observable must stay what
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
)

// bindLLFI binds a never-firing injectFault runtime and reports its count.
func bindLLFI(m *vm.Machine) func() any {
	lib := &llfi.Lib{Target: -1, RNG: fault.NewRNG(1)}
	lib.Bind(m)
	return func() any { return lib.Count }
}

// callAnchor is one dynamic execution of a call's first instruction in the
// golden run.
type callAnchor struct {
	at    int64 // InstrCount before the head executes
	head  int32
	count int64 // the runtime's count before the call: the call's index
	ret   int64 // InstrCount before some RET executes, at or after at
}

// isF64Call reports whether the call at head calls the f64 host.
func isF64Call(img *vm.Image, head int32) bool {
	return img.HostFns[img.Instrs[head+2].HostIdx] == llfi.HostFaultF64
}

// callShaped reports whether the four instructions at head have the shape
// LLFI emits around an injectFault call: two moves into the argument
// registers, the host call, and a move of the result into a register or a
// stack slot. The call seam tests anchor on it.
func callShaped(ins []vm.Inst, hosts int, head int32) bool {
	if head < 0 || int(head)+4 > len(ins) {
		return false
	}
	mov := func(in *vm.Inst) bool { return in.Op == vx.MOVQ || in.Op == vx.MOVSD }
	rr := func(in *vm.Inst) bool {
		return in.Op == vx.MOVQ2SD || in.Op == vx.MOVSD2Q || mov(in) && in.AKind == vm.OpReg && in.BKind == vm.OpReg
	}
	ri := func(in *vm.Inst) bool {
		return mov(in) && in.AKind == vm.OpReg && (in.BKind == vm.OpImm || in.BKind == vm.OpFImm)
	}
	store := func(in *vm.Inst) bool {
		return mov(in) && in.AKind == vm.OpMem && in.BKind == vm.OpReg && in.MemScale >= 0 && in.MemScale <= 255
	}
	s := ins[head : head+4]
	return (rr(&s[0]) || ri(&s[0])) && (rr(&s[1]) || ri(&s[1])) &&
		s[2].Op == vx.CALLQ && s[2].HostIdx >= 0 && int(s[2].HostIdx) < hosts &&
		(rr(&s[3]) || ri(&s[3]) || store(&s[3]))
}

// findCallAnchors records, for each threshold, the first injectFault call
// of the call shape (callShaped) and of the f64 or the integer form that the
// golden run executes at or after that many instructions, and the first RET
// from there on. It returns fewer anchors than thresholds when the run has
// no more calls of that form.
func findCallAnchors(bin *campaign.Binary, f64 bool, thresholds ...int64) []callAnchor {
	img := bin.Img
	heads := make(map[int32]bool)
	for pc, ok := range llfi.SiteMap(img) {
		if h := int32(pc) - 2; ok && callShaped(img.Instrs, len(img.HostFns), h) {
			heads[h] = isF64Call(img, h) == f64
		}
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

// TestCallMatchesSteppedAtEverySeam cuts, bends and interrupts one dynamic
// call per anchor, of the integer and of the f64 form: a budget or a fire
// point between any two of its instructions, a return into each slot, a call
// with work, the halting host and the unbound host.
func TestCallMatchesSteppedAtEverySeam(t *testing.T) {
	forms := [2]int{}
	for _, name := range diffApps(t) {
		bin := buildBin(t, name, campaign.LLFI)
		d := newSiteDiff(t, bin)
		for i, f64 := range []bool{false, true} {
			for _, a := range findCallAnchors(bin, f64, 300, 30_000) {
				forms[i]++
				callBudgetCases(d, a)
				callFireCases(d, a)
				callReturnCases(d, a)
				callLibraryCases(d, a)
			}
		}

		// No runtime bound: the two moves happen and the CALLQ traps.
		fresh := newSiteDiff(t, bin)
		fresh.check("unbound host", func(*vm.Machine) func() any { return nil })
		if fresh.fast.Trap != vm.TrapIllegal {
			t.Errorf("%s: unbound injectFault ended with trap %v", name, fresh.fast.Trap)
		}
	}
	if forms[0] == 0 || forms[1] == 0 {
		t.Errorf("anchors: %d of the integer form, %d of the f64 form; want both", forms[0], forms[1])
	}
}

// The budget runs out before each of the four instructions and right behind
// them.
func callBudgetCases(d *siteDiff, a callAnchor) {
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
func callFireCases(d *siteDiff, a callAnchor) {
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

// A corrupted return address lands on each of the four slots.
func callReturnCases(d *siteDiff, a callAnchor) {
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
// is due there and halts, moves the budget or arms a fire point. Each enters
// the host function from uCALLH.
func callLibraryCases(d *siteDiff, a callAnchor) {
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
			lib.AtMark = func(n int64) { marks = append(marks, mark{n, m.InstrCount, m.Cycles, m.PC, archRegs(m)}) }
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
