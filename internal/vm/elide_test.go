package vm_test

// Tests for the sites that skip their writes (site.go, elide): a fused site
// the next site is certain to overwrite before anything can read the slot or
// the save area writes nothing, and Run must still end exactly where
// RunStepped does — the machine, its dirty bitmap word for word, the trap
// message and the library's counter — wherever a budget, a fire point or an
// injection falls between the skipped site and the next site's fifth push.

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/vm"
	"repro/internal/vx"
	"repro/internal/workloads"
)

// elideLimit, siteTail and nextWrites restate site.go's constants: the
// instructions a walk may cover, those behind a site's head, and the next
// head's store and five pushes.
const (
	elideLimit = 48
	siteTail   = 15
	nextWrites = 6
)

// operands reports which operands execOp reaches through the operand
// decoder — the others it reads and writes as registers, whatever their
// kinds say, as stepCycles also has it — and whether it writes A; ok is
// false for an op clearInst never admits.
func operands(in *vm.Inst) (aMem, bMem, writesA, ok bool) {
	aMem, bMem, writesA = in.AKind == vm.OpMem, in.BKind == vm.OpMem, true
	switch in.Op {
	case vx.MOVQ, vx.MOVSD, vx.ADDQ, vx.SUBQ, vx.IMULQ, vx.ANDQ, vx.ORQ, vx.SHLQ, vx.SARQ:
	case vx.CMPQ, vx.TESTQ:
		writesA = false
	case vx.ADDSD, vx.SUBSD, vx.MULSD, vx.DIVSD, vx.SQRTSD, vx.CVTSI2SD, vx.CVTTSD2SI:
		aMem = false
	case vx.UCOMISD:
		aMem, writesA = false, false
	case vx.LEAQ, vx.MOVQ2SD, vx.MOVSD2Q, vx.NEGQ, vx.NOTQ, vx.SETCC: // LEAQ: an address, no access
		aMem, bMem = false, false
	case vx.JMP, vx.JCC:
		return false, false, false, true
	default:
		return false, false, false, false
	}
	return aMem, bMem, writesA, true
}

// clearInst is what a skipped site assumes of an instruction between it and
// the next site, spelled out on the decoded instruction as an independent
// check of the predecoder's walk: it runs no Go and cannot trap, writes no
// SP, and touches memory only at or above SP. It is looser than the walk —
// it admits shapes the predecoder leaves to uGeneric — so it holds for every
// path the walk accepts.
func clearInst(in *vm.Inst) bool {
	aMem, bMem, writesA, ok := operands(in)
	if !ok || writesA && !aMem && in.AReg == vx.SP {
		return false
	}
	return !aMem && !bMem || in.MemBase == vx.SP && in.MemIndex == vx.NoReg && in.MemDisp >= 0
}

// elidable walks the decoded stream from start, the instruction behind a
// site's PostFI, along every path to the next fused head saving SP to abs.
// It reports the longest path and the largest SP displacement on the paths,
// or false if a path leaves the stream, meets an instruction that is not
// clear or another site, loops, or runs past elideLimit instructions.
func elidable(ins []vm.Inst, heads map[int32]bool, start int32, abs uint64) (int, int64, bool) {
	const onStack = -1
	longest := map[int32]int{}
	var maxOff int64
	var walk func(pc int32, depth int) (int, bool)
	walk = func(pc int32, depth int) (int, bool) {
		if pc < 0 || int(pc) >= len(ins) {
			return 0, false
		}
		in := &ins[pc]
		if heads[pc] {
			return 0, uint64(in.MemDisp) == abs
		}
		if l, seen := longest[pc]; seen {
			return l, l != onStack && depth+l <= elideLimit
		}
		if depth >= elideLimit || !clearInst(in) {
			return 0, false
		}
		if aMem, bMem, _, _ := operands(in); aMem || bMem {
			maxOff = max(maxOff, in.MemDisp)
		}
		longest[pc] = onStack
		var succ []int32
		switch in.Op {
		case vx.JMP:
			succ = []int32{in.Target}
		case vx.JCC:
			succ = []int32{pc + 1, in.Target}
		default:
			succ = []int32{pc + 1}
		}
		l := 0
		for _, s := range succ {
			d, ok := walk(s, depth+1)
			if !ok {
				return 0, false
			}
			l = max(l, d+1)
		}
		longest[pc] = l
		return l, true
	}
	l, ok := walk(start, 0)
	return l, maxOff, ok
}

// checkElided asserts the independent predicate for every site img may skip:
// its paths are clear and its need and maxOff are what they imply.
func checkElided(t testing.TB, img *vm.Image) []vm.Elided {
	t.Helper()
	heads, _ := vm.SiteHeads(img)
	isHead := make(map[int32]bool, len(heads))
	for _, h := range heads {
		isHead[h] = true
	}
	el := vm.ElidedSites(img)
	for _, e := range el {
		l, off, ok := elidable(img.Instrs, isHead, e.Post+6, e.Abs)
		if !ok || e.Need != int64(siteTail+l+nextWrites) || e.MaxOff != uint64(off) || e.MaxOff > uint64(img.MemSize)-8 {
			t.Fatalf("site at %d (post %d) skips its writes with need %d, maxOff %d; the decoded stream: clear %v, path %d, maxOff %d",
				e.Head, e.Post, e.Need, e.MaxOff, ok, l, off)
		}
	}
	return el
}

// TestSiteElisionCoversClearStretches is the census: per app, the static
// sites that may skip their writes and the dynamic golden-run sites that do,
// at least 75 % of all of them; and every site that may skip satisfies the
// predicate on the decoded stream.
func TestSiteElisionCoversClearStretches(t *testing.T) {
	var allDyn, allSkip int64
	for _, name := range workloads.Names() {
		bin := buildBin(t, name, campaign.REFINE)
		heads, _ := vm.SiteHeads(bin.Img)
		elided := make(map[int32]vm.Elided)
		for _, e := range checkElided(t, bin.Img) {
			elided[e.Head] = e
		}
		fused := make(map[int32]bool, len(heads))
		for _, h := range heads {
			fused[h] = true
		}

		// A golden run has no deadline and no trigger, so a head skips
		// exactly when its site may and SP leaves the slot and the paths'
		// operands in reach.
		m := bin.NewMachine()
		count := bindGolden(m, campaign.REFINE)
		top := uint64(len(m.Mem)) - 8
		var dyn, skip int64
		everyInstr(m, func(pc int32, _ *vm.Inst) bool {
			if !fused[pc] {
				return true
			}
			dyn++
			if e, ok := elided[pc]; ok {
				if sp := m.Regs[vx.SP]; sp >= e.Abs+48 && sp <= top-e.MaxOff {
					skip++
				}
			}
			return true
		})
		t.Logf("%-8s %4d of %4d static sites may skip; %7d of %7d dynamic sites skip (%.1f %%)",
			name, len(elided), len(heads), skip, dyn, 100*float64(skip)/float64(max(dyn, 1)))
		if dyn == 0 || count() != dyn {
			t.Errorf("%s: %d dynamic sites, runtime count %d", name, dyn, count())
		}
		allDyn += dyn
		allSkip += skip
	}
	t.Logf("all apps: %d of %d dynamic sites skip their writes (%.1f %%)",
		allSkip, allDyn, 100*float64(allSkip)/float64(allDyn))
	if allSkip*4 < allDyn*3 {
		t.Errorf("only %d of %d dynamic sites skip their writes, want at least 75 %%", allSkip, allDyn)
	}
}

// elideEvent is one dynamic execution of a fused site.
type elideEvent struct {
	at    int64 // InstrCount before the head executes
	count int64 // the library's count before the site's call
	site  vm.Elided
	skips bool  // the site may skip its writes, and SP lets it
	path  int64 // instructions from the end of the site to the next head
}

// elideEvents steps m, bound to a never-firing library that counts its
// calls in count, over its first limit instructions and records the
// dynamic sites.
func elideEvents(t *testing.T, m *vm.Machine, count func() int64, limit int64) []elideEvent {
	t.Helper()
	heads, _ := vm.SiteHeads(m.Img)
	fused := make(map[int32]bool, len(heads))
	for _, h := range heads {
		fused[h] = true
	}
	elided := make(map[int32]vm.Elided)
	for _, e := range checkElided(t, m.Img) {
		elided[e.Head] = e
	}
	top := uint64(len(m.Mem)) - 8
	var out []elideEvent
	everyInstr(m, func(pc int32, _ *vm.Inst) bool {
		if !fused[pc] {
			if n := len(out); n > 0 && m.InstrCount > out[n-1].at+16 {
				out[n-1].path++
			}
			return true
		}
		sp := m.Regs[vx.SP]
		e, ok := elided[pc]
		out = append(out, elideEvent{at: m.InstrCount - 1, count: count(), site: e,
			skips: ok && sp >= e.Abs+48 && sp <= top-e.MaxOff})
		return m.InstrCount < limit
	})
	return out
}

// elideDiff cuts and bends the stretch from the head of a skipped site,
// first, to the fifth push of the site that writes, last.
type elideDiff struct {
	*siteDiff
	first, last elideEvent
}

// seams places a budget and a fire point — one flipping R2, one flipping
// SP — before every instruction of the stretch and right behind it, and a
// budget at the countdown the first site needs and one either side. Each
// run first fills the slot and the save area the first site writes with
// bytes no site writes, so a write skipped when it must not be shows: in the
// memory the budget leaves, or in the bytes the fire point sees.
func (d elideDiff) seams(label string, bind func(m *vm.Machine) func() any) {
	from, to := d.first.at, d.last.at+nextWrites
	need := d.first.site.Need
	var sp uint64 // SP at the first head
	scribble := func(m *vm.Machine) {
		sp = m.Regs[vx.SP]
		for _, a := range []uint64{d.first.site.Abs, sp - 40, sp - 32, sp - 24, sp - 16, sp - 8} {
			binary.LittleEndian.PutUint64(m.Mem[a:], 0xA5A5_5A5A_A5A5_5A5A)
			m.MarkMemWritten(a, 8)
		}
	}
	budgets := []int64{from + need, from + need + 1, from + need + 2}
	for b := from; b <= to; b++ {
		budgets = append(budgets, b)
	}
	for _, b := range budgets {
		d.check(fmt.Sprintf("%s: budget at %d", label, b), func(m *vm.Machine) func() any {
			m.Budget = b
			m.ArmFire(&vm.FirePoint{At: from, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) { scribble(mm) }})
			return bind(m)
		})
	}
	// seen is what the fire point sees.
	type seen struct {
		pc     int32
		cycles int64
		saved  [48]byte // the save area and the 8 bytes above it
		slot   uint64
	}
	for at := from; at <= to; at++ {
		for _, r := range []vx.Reg{vx.R2, vx.SP} {
			d.check(fmt.Sprintf("%s: fire at %d flips %v", label, at, r), func(m *vm.Machine) func() any {
				m.Budget = to + tailBudget
				report := bind(m)
				var s seen
				flip := func(mm *vm.Machine, _ int32, _ *vm.Inst) {
					s.pc, s.cycles = mm.PC, mm.Cycles
					copy(s.saved[:], mm.Mem[sp-40:])
					s.slot = binary.LittleEndian.Uint64(mm.Mem[d.first.site.Abs:])
					mm.FlipBit(r, 4)
				}
				m.ArmFire(&vm.FirePoint{At: from, Fn: func(mm *vm.Machine, pc int32, in *vm.Inst) {
					scribble(mm)
					if at == from {
						flip(mm, pc, in)
					} else {
						mm.ArmFire(&vm.FirePoint{At: at, Fn: flip})
					}
				}})
				return func() any { return [2]any{report(), s} }
			})
		}
	}
}

// triggerAt binds a control library whose call number target triggers.
func triggerAt(target int64) func(m *vm.Machine) func() any {
	return func(m *vm.Machine) func() any {
		lib := &core.Lib{Target: target, RNG: fault.NewRNG(3)}
		lib.Bind(m)
		return func() any {
			lib.ResolveRecord(m.Img)
			return [3]any{lib.Triggered, lib.Count, lib.Rec}
		}
	}
}

// TestSiteElisionMatchesSteppedAtEverySeam: on HPCCG, CG and XSBench, a
// skipped site, a chain of three cut anywhere, skipped sites whose next site
// triggers and one that takes a path shorter than its longest all run under
// Run exactly as under RunStepped. Under -short (the race job) only HPCCG,
// over its first 200k instructions: CG and XSBench take their shorter paths
// millions of instructions in, and every scenario steps the reference there.
func TestSiteElisionMatchesSteppedAtEverySeam(t *testing.T) {
	apps, limit := []string{"HPCCG", "CG", "XSBench"}, int64(math.MaxInt64)
	if testing.Short() {
		apps, limit = apps[:1], 200_000
	}
	for _, name := range apps {
		bin := buildBin(t, name, campaign.REFINE)
		d := newSiteDiff(t, bin)
		m := bin.NewMachine()
		ev := elideEvents(t, m, bindGolden(m, campaign.REFINE), limit)
		find := func(ok func(i int) bool) int {
			for i := 0; i+3 < len(ev); i++ {
				if ev[i].at > 300 && ok(i) {
					return i
				}
			}
			return -1
		}
		window := func(i, n int) elideDiff { return elideDiff{d, ev[i], ev[i+n]} }

		single := find(func(i int) bool { return ev[i].skips })
		chain := find(func(i int) bool { return ev[i].skips && ev[i+1].skips && ev[i+2].skips })
		short := find(func(i int) bool { return ev[i].skips && ev[i].path < ev[i].site.Need-siteTail-nextWrites })
		if single < 0 || chain < 0 || short < 0 {
			t.Fatalf("%s: the golden run has no skipped site (%d), chain of three (%d) or skipped site on a path shorter than its longest (%d)",
				name, single, chain, short)
		}
		window(single, 1).seams("skipped", bindProfile)
		window(chain, 3).seams("chain of three", bindProfile)
		for _, k := range []int{single, chain + 1} {
			window(k, 1).seams(fmt.Sprintf("site %d triggers", ev[k+1].count), triggerAt(ev[k+1].count))
		}
		window(short, 1).seams("shorter path", bindProfile)
	}
}

// siteChain builds an image that lowers SP by 256 and runs len(paths)+1
// copies of vm.SiteShape's site with paths[i] between site i and site i+1
// (branch targets relative to the path), then halts. A site's trigger
// branch halts too.
func siteChain(paths ...[]vm.Inst) *vm.Image {
	img := vm.SiteShape(nil)
	site := img.Instrs[:17]
	ins := []vm.Inst{{Op: vx.SUBQ, AKind: vm.OpReg, AReg: vx.SP, BKind: vm.OpImm, Imm: 256, HostIdx: -1}}
	add := func(block []vm.Inst) {
		base := int32(len(ins))
		for _, in := range block {
			if in.Op == vx.JCC || in.Op == vx.JMP {
				in.Target += base
			}
			if in.Op != vx.CALLQ {
				in.HostIdx = -1
			}
			ins = append(ins, in)
		}
	}
	add(site)
	for _, p := range paths {
		add(p)
		add(site)
	}
	ins = append(ins, vm.Inst{Op: vx.HALT, HostIdx: -1})
	img.Instrs = ins
	img.Funcs = []vm.FuncInfo{{Name: "main", Entry: 0, End: int32(len(ins))}}
	return img
}

// bindSel binds the crafted images' "sel": an inert, register-preserving
// counter whose call number event answers 1 (never, for a negative event).
func bindSel(event int64) func(m *vm.Machine) func() any {
	return func(m *vm.Machine) func() any {
		var count int64
		next := event
		if next < 0 {
			next = math.MaxInt64
		}
		m.BindHost(vm.HostFn{Name: "sel", PreserveRegs: true,
			Inert: vm.Inert{Count: &count, Event: &next, Ret: vx.NoReg},
			Fn: func(mm *vm.Machine) {
				mm.Regs[vx.R0] = 0
				if count == event {
					mm.Regs[vx.R0], next = 1, math.MaxInt64
				}
				count++
			}})
		return func() any { return count }
	}
}

// TestSiteElisionMatchesSteppedOnCraftedPaths covers what no golden run
// has: a path with an SP operand, whose branch arms differ in length, in a
// chain of three skipped sites; SP moved at the first head to within 48
// bytes above the slot (no skip) or so close to the top of memory that the
// path's load is out of bounds (no skip, and the load traps).
func TestSiteElisionMatchesSteppedOnCraftedPaths(t *testing.T) {
	reg := func(op vx.Op, r vx.Reg, imm int64) vm.Inst {
		return vm.Inst{Op: op, AKind: vm.OpReg, AReg: r, BKind: vm.OpImm, Imm: imm}
	}
	load := vm.Inst{Op: vx.MOVQ, AKind: vm.OpReg, AReg: vx.R5, BKind: vm.OpMem,
		MemBase: vx.SP, MemIndex: vx.NoReg, MemScale: 1, MemDisp: 16}
	img := siteChain(
		[]vm.Inst{load, reg(vx.CMPQ, vx.R5, 0), {Op: vx.JCC, Cond: vx.CondE, Target: 5},
			reg(vx.ADDQ, vx.R6, 1), reg(vx.ADDQ, vx.R6, 2)},
		[]vm.Inst{reg(vx.ADDQ, vx.R7, 3)},
		[]vm.Inst{reg(vx.SUBQ, vx.R7, 1)},
	)
	el := checkElided(t, img)
	if len(el) != 3 || el[0].Need != siteTail+5+nextWrites || el[0].MaxOff != 16 || el[1].MaxOff != 0 {
		t.Fatalf("crafted chain: sites that may skip %+v, want three, the first with need %d and maxOff 16",
			el, siteTail+5+nextWrites)
	}
	d := &siteDiff{t: t, name: "crafted chain", fast: vm.New(img), ref: vm.New(img)}
	m := vm.New(img)
	count := bindSel(-1)(m)
	ev := elideEvents(t, m, func() int64 { return count().(int64) }, 1000)
	if len(ev) != 4 || !ev[0].skips || !ev[1].skips || !ev[2].skips || ev[3].site.Need != 0 || ev[0].path != 3 {
		t.Fatalf("crafted chain: dynamic sites %+v, want three that skip, the first on a 3-instruction path, then one that writes", ev)
	}
	elideDiff{d, ev[0], ev[3]}.seams("chain of three", bindSel(-1))
	elideDiff{d, ev[0], ev[1]}.seams("site 1 triggers", bindSel(1))
	elideDiff{d, ev[1], ev[2]}.seams("site 2 triggers", bindSel(2))

	abs, top := el[0].Abs, uint64(img.MemSize)-8
	for _, sp := range []uint64{abs + 8, abs + 40, abs + 47, abs + 48, top - 16, top - 15, top - 8, top} {
		d.check(fmt.Sprintf("SP=%#x at the first head", sp), func(m *vm.Machine) func() any {
			m.Budget = 1000
			m.ArmFire(&vm.FirePoint{At: ev[0].at, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) { mm.Regs[vx.SP] = sp }})
			return bindSel(-1)(m)
		})
		if trap := d.fast.Trap == vm.TrapSegv && d.fast.InstrCount == ev[0].at+siteTail+2; sp >= top-16 && trap != (sp > top-16) {
			t.Errorf("SP=%#x: trap %v after %d instructions; the path's load at SP+16 is out of bounds: %v",
				sp, d.fast.Trap, d.fast.InstrCount, sp > top-16)
		}
	}
}
