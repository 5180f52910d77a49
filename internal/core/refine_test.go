package core_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/mir"
	"repro/internal/opt"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/vx"
)

// buildSmall constructs a module with arithmetic, branches, calls and memory
// traffic, compiles it, and returns the machine program.
func buildSmall(t *testing.T) *codegen.Result {
	t.Helper()
	m := ir.NewModule("t")
	m.DeclareHost(ir.HostDecl{Name: "out_i64", Params: []ir.Type{ir.I64}, Ret: ir.I64})
	m.AddGlobal(ir.Global{Name: "buf", Size: 128})
	b := ir.NewBuilder(m)

	b.NewFunc("kernel", ir.I64, ir.I64)
	acc := b.NewVar(ir.I64, b.ConstI(0))
	b.Loop(b.ConstI(0), b.Param(0), b.ConstI(1), func(i *ir.Value) {
		acc.Set(b.Add(acc.Get(), b.Mul(i, i)))
	})
	b.Ret(acc.Get())

	b.NewFunc("main", ir.I64)
	buf := b.GlobalAddr("buf")
	b.Loop(b.ConstI(0), b.ConstI(16), b.ConstI(1), func(i *ir.Value) {
		b.Store(b.Call("kernel", i), b.Index(buf, i))
	})
	s := b.NewVar(ir.I64, b.ConstI(0))
	b.Loop(b.ConstI(0), b.ConstI(16), b.ConstI(1), func(i *ir.Value) {
		s.Set(b.Add(s.Get(), b.Load(ir.I64, b.Index(buf, i))))
	})
	b.Call("out_i64", s.Get())
	b.Ret(b.ConstI(0))

	opt.Optimize(m, opt.O2)
	res, err := codegen.Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res
}

func runProfiled(t *testing.T, img *vm.Image) (*vm.Machine, *core.Lib) {
	t.Helper()
	m := vm.New(img)
	m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
		mm.Output = append(mm.Output, mm.Regs[vx.R1])
		mm.Regs[vx.R0] = 0
	}})
	lib := &core.Lib{Target: -1}
	lib.Bind(m)
	if trap := m.Run(); trap != vm.TrapNone {
		t.Fatalf("trap %v: %s", trap, m.TrapMsg)
	}
	return m, lib
}

func TestInstrumentCountsSites(t *testing.T) {
	res := buildSmall(t)
	sites, err := core.Instrument(res.Prog, fault.DefaultConfig())
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	if sites == 0 {
		t.Fatal("no sites instrumented")
	}
	img, err := asm.Assemble(res.Prog, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if img.NumSites != int32(sites)+1 {
		t.Fatalf("NumSites %d, want %d", img.NumSites, sites+1)
	}
	// Every site id must appear exactly once among app instructions.
	seen := map[int32]int{}
	for i := range img.Instrs {
		if s := img.Instrs[i].SiteID; s > 0 {
			seen[s]++
			if img.Instrs[i].Instrumented {
				t.Fatalf("site %d assigned to an instrumentation instruction", s)
			}
		}
	}
	if len(seen) != sites {
		t.Fatalf("%d distinct sites in image, want %d", len(seen), sites)
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("site %d appears %d times", s, n)
		}
	}
}

func TestInstrumentedBinaryIsTransparent(t *testing.T) {
	plain := buildSmall(t)
	plainImg, err := asm.Assemble(plain.Prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm := vm.New(plainImg)
	pm.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
		mm.Output = append(mm.Output, mm.Regs[vx.R1])
		mm.Regs[vx.R0] = 0
	}})
	if trap := pm.Run(); trap != vm.TrapNone {
		t.Fatalf("plain trap %v", trap)
	}

	instr := buildSmall(t)
	if _, err := core.Instrument(instr.Prog, fault.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(instr.Prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	im, lib := runProfiled(t, img)
	if len(im.Output) != len(pm.Output) {
		t.Fatalf("output length changed under instrumentation")
	}
	for i := range pm.Output {
		if im.Output[i] != pm.Output[i] {
			t.Fatalf("output[%d] differs: instrumentation not transparent", i)
		}
	}
	if lib.Count == 0 {
		t.Fatal("selInstr never called")
	}
}

func TestProfileCountMatchesDynamicTargets(t *testing.T) {
	res := buildSmall(t)
	cfg := fault.DefaultConfig()
	if _, err := core.Instrument(res.Prog, cfg); err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(res.Prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, lib := runProfiled(t, img)

	// Count dynamically executed target instructions by stepping the run;
	// must equal the library's count exactly.
	m2 := vm.New(img)
	m2.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) { mm.Regs[vx.R0] = 0 }})
	plib := &core.Lib{Target: -1}
	plib.Bind(m2)
	var n int64
	pinfi.Observe(m2, pinfi.CostModel{}, pinfi.TargetMap(img, cfg), func(int32) bool { n++; return true })
	if n != lib.Count {
		t.Fatalf("stepping counted %d targets, selInstr %d", n, lib.Count)
	}
}

func TestInjectFlipsExactlyOnce(t *testing.T) {
	res := buildSmall(t)
	if _, err := core.Instrument(res.Prog, fault.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(res.Prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, prof := runProfiled(t, img)

	triggered := 0
	for target := int64(0); target < prof.Count; target += prof.Count / 17 {
		m := vm.New(img)
		m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) { mm.Regs[vx.R0] = 0 }})
		m.Budget = 10_000_000
		lib := &core.Lib{Target: target, RNG: fault.NewRNG(uint64(target) + 7)}
		lib.Bind(m)
		m.Run()
		if lib.Triggered {
			triggered++
		}
	}
	if triggered == 0 {
		t.Fatal("injection never triggered")
	}
}

// TestRecordDescribesFirstFlip: when corrupted control flow re-enters an
// injection block after the trigger, setupFI is served again — the draw and
// the flip still happen, RNG order is part of a trial's determinism — but the
// fault log keeps the first flip's ⟨operand, bit⟩ beside the first trigger's
// DynIdx and SiteID, for a single flip and for REFINE2's pair alike.
func TestRecordDescribesFirstFlip(t *testing.T) {
	p := &mir.Prog{Entry: "main", HostFns: []string{core.HostSelInstr, core.HostSetupFI}}
	main := &mir.Fn{Name: "main"}
	b := main.NewBlock()
	mov := func(r vx.Reg, v int64) {
		b.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(r), B: mir.Imm(v)})
	}
	mov(vx.R1, 1) // the site id
	b.Emit(&mir.Instr{Op: vx.CALLQ, A: mir.Sym(core.HostSelInstr), NIntArgs: 1})
	for call := 0; call < 2; call++ { // the block's own setupFI, then the re-entry
		mov(vx.R1, 2)
		mov(vx.R2, 64)
		mov(vx.R3, 64)
		b.Emit(&mir.Instr{Op: vx.CALLQ, A: mir.Sym(core.HostSetupFI), NIntArgs: 3})
	}
	mov(vx.R0, 0)
	b.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{main}
	img, err := asm.Assemble(p, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const seed = 3
	for _, flips := range []int{1, 2} {
		ref := fault.NewRNG(seed)
		op, bit := ref.Intn(2), ref.Intn(64)
		if op2, bit2 := ref.Intn(2), ref.Intn(64); op2 == op && bit2 == bit {
			t.Fatalf("seed %d draws ⟨%d, %d⟩ twice; pick one whose draws differ", seed, op, bit)
		}
		lib := &core.Lib{Target: 0, RNG: fault.NewRNG(seed), Flips: flips}
		m := vm.New(img)
		lib.Bind(m)
		if trap := m.Run(); trap != vm.TrapNone {
			t.Fatalf("trap %v: %s", trap, m.TrapMsg)
		}
		want := fault.Record{DynIdx: 0, SiteID: 1, Bit: uint(bit)}
		if !lib.Triggered || lib.Rec != want || lib.OpIdx != int(op) {
			t.Errorf("flips=%d: triggered=%v rec=%+v op=%d, want the first draw: rec=%+v op=%d",
				flips, lib.Triggered, lib.Rec, lib.OpIdx, want, op)
		}
		if lib.RNG.Next() != ref.Next() {
			t.Errorf("flips=%d: the re-entered setupFI did not draw", flips)
		}
	}
}

func TestClassFilters(t *testing.T) {
	counts := map[string]int{}
	for _, cls := range []string{"all", "arithm", "mem", "stack"} {
		res := buildSmall(t)
		cs, err := fault.ParseClasses(cls)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fault.Config{Classes: cs}
		sites, err := core.Instrument(res.Prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts[cls] = sites
	}
	if counts["all"] != counts["arithm"]+counts["mem"]+counts["stack"] {
		t.Fatalf("class partition broken: %+v", counts)
	}
	for cls, n := range counts {
		if n == 0 {
			t.Fatalf("class %s has no sites", cls)
		}
	}
}

func TestFuncFilter(t *testing.T) {
	res := buildSmall(t)
	cfg := fault.Config{Funcs: []string{"kernel"}, Classes: fault.ClassAll}
	sites, err := core.Instrument(res.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sites == 0 {
		t.Fatal("no sites in kernel")
	}
	// All sites must be inside the kernel function.
	img, err := asm.Assemble(res.Prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range img.Instrs {
		in := &img.Instrs[i]
		if in.SiteID > 0 && img.Funcs[in.FnIdx].Name != "kernel" {
			t.Fatalf("site %d outside kernel (in %s)", in.SiteID, img.Funcs[in.FnIdx].Name)
		}
	}
}

func TestInstrumentationMarksItself(t *testing.T) {
	res := buildSmall(t)
	if _, err := core.Instrument(res.Prog, fault.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// Instrumenting twice must not target instrumentation instructions:
	// site count stays stable.
	before := countSites(res)
	sites2, err := core.Instrument(res.Prog, fault.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sites2 != 0 {
		t.Fatalf("re-instrumentation added %d sites (targets leaked)", sites2)
	}
	if countSites(res) != before {
		t.Fatalf("site count changed on re-instrumentation")
	}
}

func countSites(res *codegen.Result) int {
	n := 0
	for _, f := range res.Prog.Fns {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.SiteID > 0 {
					n++
				}
			}
		}
	}
	return n
}

func TestDisasmShowsInstrumentation(t *testing.T) {
	res := buildSmall(t)
	if _, err := core.Instrument(res.Prog, fault.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(res.Prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := asm.Disasm(img)
	for _, want := range []string{"refine_selInstr@host", "refine_setupFI@host", "fi-instr", "pushf"} {
		if !strings.Contains(text, want) {
			t.Fatalf("disassembly missing %q", want)
		}
	}
}
