package vm_test

// Tests of the run accounting (predecode.go, runs; run.go): runFast charges
// a straight-line run of uops once, at the loop's head, and dispatches its
// uops with no accounting of their own. Wherever a budget, a fire point, a
// trap or a mid-run Repredecode falls inside a run, the machine must stop,
// trap or call out exactly where RunStepped does, with the same InstrCount,
// Cycles and PC. A census models the loop on the 14 golden runs: how many
// instructions a head pass covers, and which shapes still go to uGeneric.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/vx"
	"repro/internal/workloads"
)

// census is what runFast's loop does on a set of golden runs, modelled on
// the instructions the stepped reference executes (model).
type census struct {
	instrs     int64            // architectural instructions
	heads      int64            // passes of the loop's head
	dispatches int64            // uops dispatched: a fused site is one
	stepped    int64            // instructions the head hands to Step
	generic    map[string]int64 // uGeneric dispatches by instruction shape
}

func (c *census) add(o census) {
	c.instrs += o.instrs
	c.heads += o.heads
	c.dispatches += o.dispatches
	c.stepped += o.stepped
	if c.generic == nil {
		c.generic = make(map[string]int64)
	}
	for k, n := range o.generic {
		c.generic[k] += n
	}
}

// shape names an instruction's opcode and operand kinds, as in
// "ADDQ r,[m]".
func shape(in *vm.Inst) string {
	kind := func(k vm.OpndKind) string {
		return [...]string{"-", "r", "imm", "fimm", "[m]"}[k]
	}
	return fmt.Sprintf("%v %s,%s", in.Op, kind(in.AKind), kind(in.BKind))
}

// model steps m, its hosts bound, to its end and replays runFast's loop on
// the instructions it executes, with a fire point due at fireAt (none for a
// negative one) whose callback does nothing:
//
//   - the head runs at the start, behind every run — which a terminator or
//     the overflow cut ends — and behind every instruction Step ran;
//   - at the head, a run of rem instructions from count c is entered whole
//     when c+rem is at most the deadline; otherwise Step runs one
//     instruction, and the one at which the fire point is due services it,
//     leaving no deadline;
//   - a host call that declares inert calls and a fused site stay inside
//     their run, and a fused site dispatches the 15 instructions behind its
//     head with it (a golden run's libraries are inert on every call, and
//     its SP sane); a call of another host enters Go and ends its run.
//
// entry, if not nil, is called at every head pass that enters a run, with
// its PC and count, and stops the model when it returns false.
func model(m *vm.Machine, fireAt int64, entry func(pc int32, at int64) bool) census {
	img := m.Img
	heads, _ := vm.SiteHeads(img)
	fused := make(map[int32]bool, len(heads))
	for _, h := range heads {
		fused[h] = true
	}
	deadline := int64(math.MaxInt64)
	if fireAt >= 0 {
		deadline = fireAt
	}
	c := census{generic: make(map[string]int64)}
	head, skip := true, 0
	everyInstr(m, func(pc int32, in *vm.Inst) bool {
		at := m.InstrCount - 1
		c.instrs++
		if skip > 0 {
			skip--
			return true
		}
		class, rem, _, generic := vm.Slot(img, pc)
		if head {
			c.heads++
		}
		if head && at+int64(rem) > deadline {
			c.stepped++
			if at >= deadline {
				deadline = math.MaxInt64
			}
			head = true
			return true
		}
		if head && entry != nil && !entry(pc, at) {
			return false
		}
		c.dispatches++
		if generic {
			c.generic[shape(in)]++
		}
		if fused[pc] {
			skip = 15
		}
		// A call that enters Go takes back the rest of its run and ends it.
		head = class != vm.Straight || in.Op == vx.CALLQ && in.HostIdx >= 0 && !vm.DeclaresInert(m, in.HostIdx)
		return true
	})
	return c
}

// censusTools are the tools whose golden runs the censuses model.
var censusTools = []campaign.Tool{campaign.LLFI, campaign.REFINE, campaign.PINFI}

// goldenCensus models the golden runs of every app (diffApps under -short)
// under each of censusTools once per test binary, with a fire point half
// way through each run, as a trial arms one.
var goldenCensus = sync.OnceValues(func() (map[campaign.Tool]census, error) {
	names := workloads.Names()
	if testing.Short() {
		names = []string{"HPCCG", "CG", "DC"}
	}
	out := make(map[campaign.Tool]census)
	for _, name := range names {
		app, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, tool := range censusTools {
			bin, err := campaign.BuildBinary(app, tool, campaign.DefaultBuildOptions())
			if err != nil {
				return nil, err
			}
			probe := bin.NewMachine()
			bindGolden(probe, tool)
			probe.Run()
			m := bin.NewMachine()
			bindGolden(m, tool)
			c := out[tool]
			c.add(model(m, probe.InstrCount/2, nil))
			out[tool] = c
		}
	}
	return out, nil
})

// maxHeads bounds each tool's head passes over the golden runs of the 14
// apps, and of -short's three. PINFI's is its count from before generic uops
// stayed inside their runs; LLFI's and REFINE's hold what straight host
// calls and sites earn — 1 239 742 and 1 784 416 head passes while they
// ended their runs, bounded at 0.6 M and 0.5 M, and -short's 359 935 and
// 485 370 scaled by the same factors. A change that ends runs more often
// shows here.
var maxHeads = map[bool]map[campaign.Tool]int64{
	false: {campaign.LLFI: 600_000, campaign.REFINE: 500_000, campaign.PINFI: 233_370},
	true:  {campaign.LLFI: 174_200, campaign.REFINE: 136_000, campaign.PINFI: 72_175},
}

// TestRunCensus logs, per tool, what the loop's head costs over the golden
// runs: how many instructions a head pass covers, what share of the
// instructions goes through Step around a fire point, and which shapes go
// through uGeneric. Head passes must stay within maxHeads, and a PINFI run —
// the binary-level trials are nothing but this loop — must average at least
// 5 instructions a head pass.
func TestRunCensus(t *testing.T) {
	by, err := goldenCensus()
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range censusTools {
		c := by[tool]
		t.Logf("%-6s %10d instructions, %9d head passes (%5.2f instructions each), %9d dispatches, %3d through Step (%.5f %%)",
			tool.Name(), c.instrs, c.heads, float64(c.instrs)/float64(c.heads), c.dispatches,
			c.stepped, 100*float64(c.stepped)/float64(c.instrs))
		if c.stepped == 0 || c.stepped*1000 > c.instrs {
			t.Errorf("%s: %d of %d instructions through Step, want a few per fire point", tool.Name(), c.stepped, c.instrs)
		}
		if most := maxHeads[testing.Short()][tool]; c.heads > most {
			t.Errorf("%s: %d head passes, want at most %d", tool.Name(), c.heads, most)
		}
		shapes := make([]string, 0, len(c.generic))
		var all int64
		for s, n := range c.generic {
			shapes = append(shapes, s)
			all += n
		}
		sort.Slice(shapes, func(i, j int) bool { return c.generic[shapes[i]] > c.generic[shapes[j]] })
		var top []string
		for _, s := range shapes[:min(4, len(shapes))] {
			top = append(top, fmt.Sprintf("%s %.4f %%", s, 100*float64(c.generic[s])/float64(c.dispatches)))
		}
		t.Logf("%-6s %d of %d dispatches generic (%.4f %%); most: %s", tool.Name(), all, c.dispatches,
			100*float64(all)/float64(c.dispatches), strings.Join(top, ", "))
	}
	if c := by[campaign.PINFI]; c.instrs < 5*c.heads {
		t.Errorf("PINFI: %d instructions over %d head passes, want at least 5 a pass", c.instrs, c.heads)
	}
}

// runEntry is one run the golden run enters at the loop's head.
type runEntry struct {
	at   int64 // InstrCount at the entry
	pc   int32
	n    int64  // instructions from the entry to the end of the run
	ends string // what it is: see runKinds
	lib  any    // what the bind's report said at the entry
}

// runKinds are the kinds of run findRuns looks for: runs through two or more
// fused sites, through one, runs ending in a compare and branch, runs
// through a host call, and runs ending in another branch.
var runKinds = []string{"two or more sites", "a site", "a compare and branch", "a host call", "a branch"}

// findRuns returns, for each of runKinds, the first per entries of distinct
// PCs the golden run of bin (its hosts bound by bind) makes past 300
// instructions. A kind the image cannot have stays empty.
func findRuns(bin *campaign.Binary, bind func(m *vm.Machine) func() any, per int) []runEntry {
	img := bin.Img
	heads, posts := vm.SiteHeads(img)
	exit := make(map[int32]int32, len(heads))
	for i, h := range heads {
		exit[h] = posts[i] + 6
	}
	seen := make(map[int32]bool)
	taken := make(map[string]int)
	var out []runEntry
	m := bin.NewMachine()
	report := bind(m)
	model(m, -1, func(pc int32, at int64) bool {
		class, rem, _, _ := vm.Slot(img, pc)
		if at < 300 || seen[pc] || class == vm.Breaker {
			return true
		}
		seen[pc] = true
		end, sites, calls := pc, 0, 0
		for {
			if c, _, _, _ := vm.Slot(img, end); c != vm.Straight {
				break
			}
			if x, ok := exit[end]; ok {
				end, sites = x, sites+1
				continue
			}
			if in := &img.Instrs[end]; in.Op == vx.CALLQ && in.HostIdx >= 0 {
				calls++
			}
			end++
		}
		var kind string
		switch c, _, _, _ := vm.Slot(img, end); {
		case sites >= 2:
			kind = "two or more sites"
		case sites == 1:
			kind = "a site"
		case c == vm.Terminator && end > pc && compareAndBranch(img, end):
			kind = "a compare and branch"
		case calls > 0:
			kind = "a host call"
		case c == vm.Terminator:
			kind = "a branch"
		default:
			return true
		}
		if taken[kind] < per {
			taken[kind]++
			var lib any
			if report != nil {
				lib = report()
			}
			out = append(out, runEntry{at: at, pc: pc, n: int64(rem), ends: kind, lib: lib})
		}
		return len(out) < len(runKinds)*per && at < 2_000_000
	})
	return out
}

// compareAndBranch reports whether the instruction at pc is a JCC right
// behind a CMPQ or TESTQ.
func compareAndBranch(img *vm.Image, pc int32) bool {
	op := img.Instrs[pc-1].Op
	return img.Instrs[pc].Op == vx.JCC && (op == vx.CMPQ || op == vx.TESTQ)
}

// bindNone binds what a PINFI image imports: nothing.
func bindNone(m *vm.Machine) func() any {
	bindGolden(m, campaign.PINFI)
	return nil
}

// TestRunAccountingMatchesSteppedAtEverySeam puts a budget and a fire point
// on every instruction boundary of runs the golden runs of FT and CG under
// PINFI, CG under LLFI and HPCCG under REFINE enter — runs through two or
// more fused sites, through one, through a host call (inert under LLFI, one
// that enters Go under PINFI), and runs ending in a compare and branch (so
// one lands between the two) or in another branch — and holds Run to
// RunStepped: machineState with the dirty bitmap, TrapMsg, final memory, and
// the PC, counts and cycles the fire point sees. A run through sites also
// gets budgets past its end as far as a site's need reaches (elide: a site
// whose need the deadline does not leave writes), and the control library's
// call of its first and of its second site due (Count == Event), under a
// budget at every boundary. Under -short two runs of each kind on two
// images.
func TestRunAccountingMatchesSteppedAtEverySeam(t *testing.T) {
	type image struct {
		app  string
		tool campaign.Tool
		bind func(m *vm.Machine) func() any
	}
	images := []image{
		{"HPCCG", campaign.REFINE, bindProfile}, {"CG", campaign.LLFI, bindLLFI},
		{"FT", campaign.PINFI, bindNone}, {"CG", campaign.PINFI, bindNone},
	}
	per := 10
	if testing.Short() {
		images, per = images[:2], 2
	}
	type seen struct {
		pc            int32
		count, cycles int64
		regs          [vx.NumRegs]uint64
	}
	// The most instructions a site's need reaches past its head.
	const maxNeed = 15 + 48 + 6
	total, kinds := 0, make(map[string]int)
	for _, im := range images {
		bin := buildBin(t, im.app, im.tool)
		d := newSiteDiff(t, bin)
		runs := findRuns(bin, im.bind, per)
		for _, r := range runs {
			kinds[r.ends]++
		}
		total += len(runs)
		for _, r := range runs {
			label := fmt.Sprintf("run at pc %d (%d instructions, %s), entered at %d:", r.pc, r.n, r.ends, r.at)
			last := r.at + r.n
			if strings.Contains(r.ends, "site") {
				last += maxNeed
			}
			for k := r.at; k <= last; k++ {
				d.check(fmt.Sprintf("%s budget %d", label, k), func(m *vm.Machine) func() any {
					m.Budget = k
					return im.bind(m)
				})
				d.check(fmt.Sprintf("%s fire point at %d", label, k), func(m *vm.Machine) func() any {
					m.Budget = k + tailBudget
					var s seen
					m.ArmFire(&vm.FirePoint{At: k, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
						s = seen{mm.PC, mm.InstrCount, mm.Cycles, archRegs(mm)}
						mm.FlipBit(vx.Reg(k%4), 2)
					}})
					report := im.bind(m)
					return func() any {
						if report == nil {
							return s
						}
						return [2]any{s, report()}
					}
				})
			}
			if r.ends != "two or more sites" {
				continue
			}
			for i, target := range []int64{r.lib.(int64), r.lib.(int64) + 1} {
				for k := r.at; k <= r.at+r.n; k++ {
					d.check(fmt.Sprintf("%s the call of site %d due, budget %d", label, i+1, k), func(m *vm.Machine) func() any {
						m.Budget = k
						return triggerAt(target)(m)
					})
				}
			}
		}
	}
	for _, e := range runKinds {
		if kinds[e] < per {
			t.Errorf("%d runs of %s cut, want at least %d", kinds[e], e, per)
		}
	}
	if !testing.Short() && total < 50 {
		t.Errorf("%d runs cut, want at least 50: %v", total, kinds)
	}
	t.Logf("%d runs cut: %v", total, kinds)
}

// crafted builds a one-function image from ins, with one imported host
// function, "h", and 64 KiB of memory.
func crafted(ins []vm.Inst) *vm.Image {
	for i := range ins {
		if ins[i].Op != vx.CALLQ {
			ins[i].HostIdx = -1
		}
	}
	return &vm.Image{
		Instrs:     ins,
		Funcs:      []vm.FuncInfo{{Name: "main", Entry: 0, End: int32(len(ins))}},
		HostFns:    []string{"h"},
		GlobalBase: vm.DefaultGlobalBase,
		GlobalEnd:  vm.DefaultGlobalBase + 128,
		MemSize:    1 << 16,
	}
}

func regImm(op vx.Op, r vx.Reg, imm int64) vm.Inst {
	return vm.Inst{Op: op, AKind: vm.OpReg, AReg: r, BKind: vm.OpImm, Imm: imm}
}

func memOp(in vm.Inst, base vx.Reg, disp int64) vm.Inst {
	in.MemBase, in.MemIndex, in.MemScale, in.MemDisp = base, vx.NoReg, 1, disp
	return in
}

// trapRun builds an image whose preamble sets R2 to 0, R3 to an address in
// the guard page and SP to the top of memory with a return address past the
// stream on the stack, jumps to a run of n slots of ADDQ R1, 1 holding trap
// at slot k, and halts behind it.
func trapRun(trap vm.Inst, k, n int) *vm.Image {
	pre := []vm.Inst{
		regImm(vx.MOVQ, vx.R2, 0),
		regImm(vx.MOVQ, vx.R3, 8),
		regImm(vx.MOVQ, vx.R5, 1<<40),
		{Op: vx.PUSHQ, AKind: vm.OpReg, AReg: vx.R5},
		{Op: vx.JMP, Target: 5},
	}
	ins := append(pre, make([]vm.Inst, n)...)
	for i := 0; i < n; i++ {
		ins[len(pre)+i] = regImm(vx.ADDQ, vx.R1, 1)
	}
	ins[len(pre)+k] = trap
	return crafted(append(ins, vm.Inst{Op: vx.HALT}))
}

// craftedDiff is a siteDiff on a crafted image.
func craftedDiff(t *testing.T, name string, img *vm.Image) *siteDiff {
	return &siteDiff{t: t, name: name, fast: vm.New(img), ref: vm.New(img)}
}

// TestRunTrapsTakeBackTheirRun: a load, a store, a pop, a return, a divide,
// generic slots — ALU ops with a memory operand, an illegal opcode — each
// trapping at each slot of a run, and a pop whose SP is at the top of
// memory, leave the machine exactly as Step does — the run's charge for the
// slots behind the trap taken back, PC behind the trapping instruction, the
// same trap message. A generic slot that does not trap, and a HALT, stay
// inside the run, under a budget and a fire point at every boundary.
func TestRunTrapsTakeBackTheirRun(t *testing.T) {
	const n = 6
	ld := vm.Inst{Op: vx.MOVQ, AKind: vm.OpReg, AReg: vx.R4, BKind: vm.OpMem}
	st := vm.Inst{Op: vx.MOVQ, AKind: vm.OpMem, BKind: vm.OpReg, BReg: vx.R4}
	traps := map[string]vm.Inst{
		"load":          memOp(ld, vx.R3, 0),
		"store":         memOp(st, vx.R3, 0),
		"store imm":     memOp(vm.Inst{Op: vx.MOVQ, AKind: vm.OpMem, BKind: vm.OpImm, Imm: 9}, vx.R3, 0),
		"return":        {Op: vx.RET},
		"divide":        {Op: vx.IDIVQ, AKind: vm.OpReg, AReg: vx.R1, BKind: vm.OpReg, BReg: vx.R2},
		"remainder":     regImm(vx.IREMQ, vx.R1, 0),
		"add from mem":  memOp(vm.Inst{Op: vx.ADDQ, AKind: vm.OpReg, AReg: vx.R1, BKind: vm.OpMem}, vx.R3, 0),
		"add to mem":    memOp(vm.Inst{Op: vx.ADDQ, AKind: vm.OpMem, BKind: vm.OpReg, BReg: vx.R1}, vx.R3, 0),
		"fadd from mem": memOp(vm.Inst{Op: vx.ADDSD, AKind: vm.OpReg, AReg: vx.F1, BKind: vm.OpMem}, vx.R3, 0),
		"test mem":      memOp(vm.Inst{Op: vx.TESTQ, AKind: vm.OpMem, BKind: vm.OpReg, BReg: vx.R1}, vx.R3, 0),
		"compare mem":   memOp(vm.Inst{Op: vx.CMPQ, AKind: vm.OpMem, BKind: vm.OpImm, Imm: 4}, vx.R3, 0),
		"illegal":       {Op: vx.NumOps},
	}
	names := make([]string, 0, len(traps))
	for name := range traps {
		names = append(names, name)
	}
	sort.Strings(names)
	check := func(name string, img *vm.Image, setup func(m *vm.Machine)) {
		d := craftedDiff(t, name, img)
		for b := int64(0); b <= int64(len(img.Instrs))+2; b++ {
			d.check(fmt.Sprintf("budget %d", b), func(m *vm.Machine) func() any {
				setup(m)
				m.Budget = b
				return nil
			})
		}
		if d.fast.Trap == vm.TrapNone {
			t.Errorf("%s: the run did not trap", name)
		}
	}
	for _, name := range names {
		for k := 0; k < n; k++ {
			check(fmt.Sprintf("%s at slot %d", name, k), trapRun(traps[name], k, n), func(*vm.Machine) {})
		}
	}
	for k := 0; k < n; k++ {
		// SP at the top of memory: the pop reads past it.
		img := trapRun(vm.Inst{Op: vx.POPQ, AKind: vm.OpReg, AReg: vx.R4}, k, n)
		check(fmt.Sprintf("pop at slot %d", k), img, func(m *vm.Machine) {
			m.ArmFire(&vm.FirePoint{At: 5, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
				mm.Regs[vx.SP] = uint64(len(mm.Mem))
			}})
		})
	}
	for _, g := range []struct {
		name string
		in   vm.Inst
	}{
		{"xor", vm.Inst{Op: vx.XORQ, AKind: vm.OpReg, AReg: vx.R1, BKind: vm.OpReg, BReg: vx.R5}},
		{"halt", vm.Inst{Op: vx.HALT}},
	} {
		for k := 0; k < n; k++ {
			name := fmt.Sprintf("%s at slot %d", g.name, k)
			img := trapRun(g.in, k, n)
			// The run the preamble jumps to, its HALT included.
			if c, _, _, generic := vm.Slot(img, int32(5+k)); c != vm.Straight || !generic {
				t.Fatalf("%s: the slot is %v (generic %v), want a straight generic slot", name, c, generic)
			}
			if _, rem, _, _ := vm.Slot(img, 5); rem != n+1 {
				t.Fatalf("%s: the run counts %d instructions, want %d", name, rem, n+1)
			}
			d := craftedDiff(t, name, img)
			for b := int64(0); b <= int64(len(img.Instrs))+2; b++ {
				d.check(fmt.Sprintf("budget %d", b), func(m *vm.Machine) func() any {
					m.Budget = b
					return nil
				})
				d.check(fmt.Sprintf("fire point at %d", b), func(m *vm.Machine) func() any {
					var s [3]int64
					m.ArmFire(&vm.FirePoint{At: b, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
						s = [3]int64{int64(mm.PC), mm.InstrCount, mm.Cycles}
						mm.FlipBit(vx.R1, 3)
					}})
					return func() any { return s }
				})
			}
		}
	}
}

// TestRunOverflowDemotes: a run whose instructions or cycles do not fit in
// 16 bits is cut where they overflow, that slot going to uCUT, the reference
// path, which ends the run there; the image runs like the stepped reference
// with a budget and a fire point at either side of the cut.
func TestRunOverflowDemotes(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   vm.Inst
		cost int
	}{
		{"70 000 adds", regImm(vx.ADDQ, vx.R1, 1), 1},
		{"3 000 divides", regImm(vx.IDIVQ, vx.R1, 3), 24},
	} {
		n := 70_000
		if tc.cost > 1 {
			n = 3000
		}
		ins := make([]vm.Inst, n, n+1)
		for i := range ins {
			ins[i] = tc.op
		}
		img := crafted(append(ins, vm.Inst{Op: vx.HALT}))
		// The most ops a run that ends in the HALT (1 cycle) and the exit
		// sentinel holds.
		fit := min(math.MaxUint16-1, (math.MaxUint16-1)/tc.cost)
		cut := int32(n - fit - 1)
		if c, rem, cy, generic := vm.Slot(img, cut); c != vm.Breaker || rem != 1 || cy != tc.cost || !generic {
			t.Fatalf("%s: slot %d is %v, counting %d instructions and %d cycles; want the cut, a generic breaker ending its run",
				tc.name, cut, c, rem, cy)
		}
		if _, rem, cy, _ := vm.Slot(img, cut+1); rem != fit+1 || cy != fit*tc.cost+1 {
			t.Fatalf("%s: the run behind the cut counts %d instructions, %d cycles; want %d, %d",
				tc.name, rem, cy, fit+1, fit*tc.cost+1)
		}
		if _, rem, _, _ := vm.Slot(img, 0); rem != int(cut)+1 {
			t.Fatalf("%s: the run before the cut counts %d instructions, want %d", tc.name, rem, cut+1)
		}
		d := craftedDiff(t, tc.name, img)
		for _, b := range []int64{0, 1, int64(cut) - 1, int64(cut), int64(cut) + 1, int64(cut) + 2, int64(n) - 1, int64(n), int64(n) + 1} {
			d.check(fmt.Sprintf("budget %d", b), func(m *vm.Machine) func() any {
				m.Budget = b
				return nil
			})
			d.check(fmt.Sprintf("fire point at %d", b), func(m *vm.Machine) func() any {
				var s [2]int64
				m.ArmFire(&vm.FirePoint{At: b, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
					s = [2]int64{mm.InstrCount, mm.Cycles}
					mm.FlipBit(vx.R1, 5)
				}})
				return func() any { return s }
			})
		}
	}
}

// TestRunRepredecodeMidRun: an opcode corruption from a fire point inside a
// run — of a slot behind the fire point, ahead of it, or the slot it is at
// — that turns a straight slot into a JMP, a host call or an illegal opcode
// runs like the stepped reference, and the counts of the image are
// recomputed: a JMP now ends the run at the corrupted slot, and a host call
// and an illegal opcode, a generic slot, stay inside it.
func TestRunRepredecodeMidRun(t *testing.T) {
	const n = 8
	ins := []vm.Inst{regImm(vx.MOVQ, vx.R1, 0)}
	for i := 0; i < n; i++ {
		ins = append(ins, regImm(vx.ADDQ, vx.R1, int64(i+1)))
	}
	ins = append(ins, vm.Inst{Op: vx.HALT}, regImm(vx.ADDQ, vx.R6, 7), vm.Inst{Op: vx.HALT})
	img := crafted(ins)
	jumpTo := int32(n + 2)
	corrupt := map[string]vm.Inst{
		"JMP":     {Op: vx.JMP, Target: jumpTo, HostIdx: -1},
		"host":    {Op: vx.CALLQ, HostIdx: 0},
		"illegal": {Op: vx.NumOps, HostIdx: -1},
	}
	bind := func(m *vm.Machine) {
		m.BindHost(vm.HostFn{Name: "h", PreserveRegs: true, Fn: func(mm *vm.Machine) { mm.Regs[vx.R7] += 3 }})
	}
	d := craftedDiff(t, "crafted run", img)
	for _, name := range []string{"JMP", "host", "illegal"} {
		for at := int64(1); at <= n; at++ {
			for slot := int32(1); slot <= n; slot++ {
				orig := img.Instrs[slot]
				label := fmt.Sprintf("slot %d becomes %s at instruction %d", slot, name, at)
				d.check(label, func(m *vm.Machine) func() any {
					bind(m)
					m.ArmFire(&vm.FirePoint{At: at, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
						mm.Img.Instrs[slot] = corrupt[name]
						mm.Img.Repredecode(slot)
					}})
					return func() any {
						want := len(ins) - 1
						if name == "JMP" {
							want = int(slot)
						}
						if _, rem, _, _ := vm.Slot(img, 1); rem != want {
							t.Errorf("%s: the run at slot 1 counts %d instructions, want %d", label, rem, want)
						}
						img.Instrs[slot] = orig
						img.Repredecode(slot)
						return nil
					}
				})
			}
		}
	}
	// Through the HALT, a generic slot, to the end of the stream.
	if _, rem, _, _ := vm.Slot(img, 1); rem != len(ins)-1 {
		t.Errorf("restored: the run at slot 1 counts %d instructions, want %d", rem, len(ins)-1)
	}
}

// TestRepredecodeRecountsLikeAFullPass: Repredecode counts anew only the
// runs the rewritten slot can change — the slots before it in its run — and
// leaves every slot, after any sequence of corruptions and restores, as a
// full count pass over the stream leaves it: on the site-free images opcode
// corruption mutates, every app's PINFI image (one under -short) and CG's
// LLFI image, whose inert host calls stay inside their runs.
func TestRepredecodeRecountsLikeAFullPass(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	type row struct {
		app  string
		tool campaign.Tool
	}
	rows := []row{{"CG", campaign.LLFI}}
	apps := workloads.Names()
	if testing.Short() {
		apps = []string{"FT"}
	}
	for _, app := range apps {
		rows = append(rows, row{app, campaign.PINFI})
	}
	for _, c := range rows {
		orig := buildBin(t, c.app, c.tool).Img
		img := orig.Clone()
		n := int32(len(img.Instrs))
		var rewritten []int32
		for step := 0; step < 300; step++ {
			if len(rewritten) > 0 && rng.IntN(3) == 0 {
				i := rng.IntN(len(rewritten))
				pc := rewritten[i]
				img.Instrs[pc] = orig.Instrs[pc]
				img.Repredecode(pc)
				rewritten = append(rewritten[:i], rewritten[i+1:]...)
			} else {
				pc := rng.Int32N(n)
				img.Instrs[pc] = [...]vm.Inst{
					{Op: vx.JMP, Target: rng.Int32N(n + 1), HostIdx: -1},
					{Op: vx.CALLQ, HostIdx: 0},
					{Op: vx.HALT, HostIdx: -1},
					{Op: vx.NOP, HostIdx: -1},
					{Op: vx.NumOps, HostIdx: -1},
				}[rng.IntN(5)]
				img.Repredecode(pc)
				rewritten = append(rewritten, pc)
			}
			if pc := vm.StaleCount(img); pc >= 0 {
				t.Fatalf("%s/%s, step %d: slot %d is not what a full count pass gives", c.app, c.tool.Name(), step, pc)
			}
		}
	}
}

// TestOpcodeTrialsLeaveTheCloneAsBuilt: the pool of image clones the
// opcode-corruption injectors draw from relies on a restored clone being
// pristine. Opcode-corruption trials, each injected through pinfi.RunFired
// and restored, one after another on one clone of FT's and CG's PINFI builds
// in both modes, leave every uop — kind, operands, cost, run counts — as a
// fresh clone predecodes it.
func TestOpcodeTrialsLeaveTheCloneAsBuilt(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	costs := pinfi.DefaultCosts()
	for _, app := range []string{"FT", "CG"} {
		bin := buildBin(t, app, campaign.PINFI)
		prof, err := bin.RunProfile(costs)
		if err != nil {
			t.Fatal(err)
		}
		built := bin.Img.Clone()
		for _, mode := range []pinfi.OpcodeMode{pinfi.OpcodeAny, pinfi.OpcodeValidOnly} {
			clone := bin.Img.Clone()
			m := bin.NewMachine()
			m.Img = clone
			rng := fault.NewRNG(uint64(mode) + 1)
			corrupted := 0
			for i := 0; i < trials; i++ {
				m.Reset()
				m.Budget = prof.Budget
				target := rng.Intn(prof.Targets)
				var rec fault.Record
				inject, restore := pinfi.CorruptOpcode(target, mode, rng, &rec)
				pinfi.RunFired(m, bin.FirePoints(), costs, target, inject)
				restore()
				if rec.Op != "" {
					corrupted++
				}
				if pc := vm.CodeDiff(clone, built); pc >= 0 {
					t.Fatalf("%s/mode %d, trial %d (%+v): slot %d is not as built", app, mode, i, rec, pc)
				}
			}
			if corrupted == 0 {
				t.Fatalf("%s/mode %d: no trial corrupted an opcode", app, mode)
			}
		}
	}
}

// headCounts steps a machine on img, its "sel" bound never to trigger, to
// the end and returns the InstrCount at which each fused head is reached and
// the instructions of the whole run.
func headCounts(img *vm.Image) (at map[int32]int64, total int64) {
	heads, _ := vm.SiteHeads(img)
	at = make(map[int32]int64)
	m := vm.New(img)
	bindSel(-1)(m)
	for !m.Halted {
		if slices.Contains(heads, m.PC) {
			at[m.PC] = m.InstrCount
		}
		m.Step()
	}
	return at, m.InstrCount
}

// TestRunThroughSitesOnCraftedChains: chains of three fused sites that runs
// pass through — one run through all three, a jump behind the first site (so
// its run ends before its need: a budget there leaves the run whole but the
// site writing), a trap in the first site's exit run — run like the stepped
// reference under a budget at every count with "sel" triggering at no site
// and at each, a fire point flipping SP or R2 at every count, and SP set at
// each head so that the site writes, hands over or faults.
func TestRunThroughSitesOnCraftedChains(t *testing.T) {
	add := func(r vx.Reg) vm.Inst { return regImm(vx.ADDQ, r, 1) }
	load := memOp(vm.Inst{Op: vx.MOVQ, AKind: vm.OpReg, AReg: vx.R4, BKind: vm.OpMem}, vx.R5, 0)
	chains := []struct {
		name  string
		paths [][]vm.Inst
	}{
		{"one run through three sites", [][]vm.Inst{{add(vx.R6)}, {add(vx.R7)}}},
		{"a jump behind the first site", [][]vm.Inst{{{Op: vx.JMP, Target: 1}}, {add(vx.R7)}}},
		{"a trap behind the first site", [][]vm.Inst{{regImm(vx.MOVQ, vx.R5, 8), load}, {add(vx.R7)}}},
	}
	for _, c := range chains {
		img := siteChain(c.paths...)
		heads, _ := vm.SiteHeads(img)
		if len(heads) != 3 {
			t.Fatalf("%s: %d fused sites, want 3", c.name, len(heads))
		}
		if class, rem, _, _ := vm.Slot(img, heads[0]); class != vm.Straight || rem <= 16 {
			t.Fatalf("%s: the first site is %v, counting %d instructions; want it straight, counting its exit run", c.name, class, rem)
		}
		at, total := headCounts(img)
		abs, top := uint64(img.Instrs[heads[0]].MemDisp), uint64(img.MemSize)
		// scribble fills R0..R3, FLAGS, the slot and the save area below SP
		// as the chain lowers it with values no site writes, so a write
		// skipped when it must not be shows.
		scribble := func(m *vm.Machine) {
			for r := vx.R0; r <= vx.R3; r++ {
				m.Regs[r] = 0x1111 * uint64(r+1)
			}
			m.Regs[vx.RFLAGS] = vx.FlagC
			sp := m.Regs[vx.SP] - 256
			for _, a := range []uint64{abs, sp - 40, sp - 32, sp - 24, sp - 16, sp - 8} {
				binary.LittleEndian.PutUint64(m.Mem[a:], 0xA5A5_5A5A_A5A5_5A5A)
				m.MarkMemWritten(a, 8)
			}
		}
		d := craftedDiff(t, c.name, img)
		for b := int64(0); b <= total+2; b++ {
			for event := int64(-1); event < 3; event++ {
				d.check(fmt.Sprintf("budget %d, call %d due", b, event), func(m *vm.Machine) func() any {
					m.Budget = b
					scribble(m)
					return bindSel(event)(m)
				})
			}
			for _, r := range []vx.Reg{vx.SP, vx.R2} {
				d.check(fmt.Sprintf("fire point at %d flips %v", b, r), func(m *vm.Machine) func() any {
					var s [3]int64
					m.ArmFire(&vm.FirePoint{At: b, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
						s = [3]int64{int64(mm.PC), mm.InstrCount, mm.Cycles}
						mm.FlipBit(r, 5)
					}})
					scribble(m)
					report := bindSel(-1)(m)
					return func() any { return [2]any{s, report()} }
				})
			}
		}
		for _, h := range heads {
			for _, sp := range []uint64{abs + 8, abs + 47, abs + 48, vm.DefaultGlobalBase + 39, vm.DefaultGlobalBase + 40, top - 8, top, top + 8} {
				d.check(fmt.Sprintf("SP=%#x at the head at %d", sp, h), func(m *vm.Machine) func() any {
					m.Budget = total + 100
					m.ArmFire(&vm.FirePoint{At: at[h], Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) { mm.Regs[vx.SP] = sp }})
					return bindSel(-1)(m)
				})
			}
		}
	}
}

// TestRunExitSentinelSeams: a run that ends by falling off the last
// instruction, and one that returns through the exit sentinel, under a
// budget and a fire point — which sets the exit code — at every count up to
// and past the exit: a fire point due at the exit still services before the
// halt, and the sentinel beats an exhausted budget, as in Step.
func TestRunExitSentinelSeams(t *testing.T) {
	add := regImm(vx.ADDQ, vx.R1, 1)
	for name, ins := range map[string][]vm.Inst{
		"falls off the end":       {add, add, add, add},
		"returns to the sentinel": {add, add, add, {Op: vx.RET}},
	} {
		d := craftedDiff(t, name, crafted(ins))
		for k := int64(0); k <= int64(len(ins))+1; k++ {
			d.check(fmt.Sprintf("budget %d", k), func(m *vm.Machine) func() any {
				m.Budget = k
				return nil
			})
			d.check(fmt.Sprintf("fire point at %d", k), func(m *vm.Machine) func() any {
				fired := int64(-1)
				m.ArmFire(&vm.FirePoint{At: k, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
					fired = mm.InstrCount
					mm.Regs[vx.R0] = 7
				}})
				return func() any { return fired }
			})
		}
	}
}
