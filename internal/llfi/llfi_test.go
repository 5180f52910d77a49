package llfi_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/codegen"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/llfi"
	"repro/internal/opt"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/vx"
)

func buildModule() *ir.Module {
	m := ir.NewModule("t")
	m.DeclareHost(ir.HostDecl{Name: "out_f64", Params: []ir.Type{ir.F64}, Ret: ir.I64})
	m.AddGlobal(ir.Global{Name: "arr", Size: 64 * 8})
	b := ir.NewBuilder(m)
	b.NewFunc("main", ir.I64)
	arr := b.GlobalAddr("arr")
	b.Loop(b.ConstI(0), b.ConstI(64), b.ConstI(1), func(i *ir.Value) {
		x := b.SIToFP(i)
		b.Store(b.FDiv(x, b.FAdd(x, b.ConstF(1))), b.Index(arr, i))
	})
	s := b.NewVar(ir.F64, b.ConstF(0))
	b.Loop(b.ConstI(0), b.ConstI(64), b.ConstI(1), func(i *ir.Value) {
		s.Set(b.FAdd(s.Get(), b.Load(ir.F64, b.Index(arr, i))))
	})
	b.Call("out_f64", s.Get())
	b.Ret(b.ConstI(0))
	return m
}

func compileInstrumented(t *testing.T) (*vm.Image, int) {
	t.Helper()
	m := buildModule()
	opt.OptimizeNoLower(m, opt.O2)
	sites := llfi.Instrument(m, fault.DefaultConfig())
	opt.Legalize(m)
	res, err := codegen.Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img, err := asm.Assemble(res.Prog, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img, sites
}

func bindOut(m *vm.Machine) {
	m.BindHost(vm.HostFn{Name: "out_f64", Fn: func(mm *vm.Machine) {
		mm.Output = append(mm.Output, mm.Regs[vx.F0])
		mm.Regs[vx.R0] = 0
	}})
}

func TestInstrumentAddsSitesAndVerifies(t *testing.T) {
	m := buildModule()
	opt.OptimizeNoLower(m, opt.O2)
	sites := llfi.Instrument(m, fault.DefaultConfig())
	if sites == 0 {
		t.Fatal("no sites instrumented")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify after instrumentation: %v\n%s", err, m)
	}
	// Every injectFault call must use a distinct id.
	ids := map[int64]bool{}
	for _, f := range m.Funcs {
		for _, blk := range f.Blocks {
			for _, v := range blk.Values {
				if v.Op == ir.OpCall && (v.Aux == llfi.HostFaultI64 || v.Aux == llfi.HostFaultF64 ||
					v.Aux == llfi.HostFaultI1 || v.Aux == llfi.HostFaultPtr) {
					id := v.Args[0].AuxInt
					if ids[id] {
						t.Fatalf("duplicate site id %d", id)
					}
					ids[id] = true
				}
			}
		}
	}
	if len(ids) != sites {
		t.Fatalf("%d ids for %d sites", len(ids), sites)
	}
}

func TestProfilePassesValuesThrough(t *testing.T) {
	// Golden output under profiling must equal the uninstrumented output.
	plain := buildModule()
	ipPlain := ir.NewInterp(plain)
	if _, err := ipPlain.Run("main"); err != nil {
		t.Fatal(err)
	}

	img, _ := compileInstrumented(t)
	m := vm.New(img)
	bindOut(m)
	lib := &llfi.Lib{Target: -1}
	lib.Bind(m)
	if trap := m.Run(); trap != vm.TrapNone {
		t.Fatalf("trap %v: %s", trap, m.TrapMsg)
	}
	if lib.Count == 0 {
		t.Fatal("profile counted nothing")
	}
	if len(m.Output) != len(ipPlain.Output) || m.Output[0] != ipPlain.Output[0] {
		t.Fatalf("instrumented golden output differs: %v vs %v", m.Output, ipPlain.Output)
	}
}

func TestInjectionFlipsValue(t *testing.T) {
	img, _ := compileInstrumented(t)

	// Profile to learn the population.
	m := vm.New(img)
	bindOut(m)
	plib := &llfi.Lib{Target: -1}
	plib.Bind(m)
	m.Run()
	golden := append([]uint64(nil), m.Output...)
	budget := m.InstrCount * 10

	// Sweep several targets; at least some must corrupt the output or crash,
	// and every triggered run must record the fault.
	nonBenign := 0
	for target := int64(0); target < plib.Count; target += plib.Count/23 + 1 {
		mi := vm.New(img)
		bindOut(mi)
		mi.Budget = budget
		lib := &llfi.Lib{Target: target, RNG: fault.NewRNG(uint64(target)*13 + 1)}
		lib.Bind(mi)
		mi.Run()
		if !lib.Triggered {
			t.Fatalf("target %d never triggered", target)
		}
		if fault.Classify(mi, golden) != fault.Benign {
			nonBenign++
		}
	}
	if nonBenign == 0 {
		t.Fatal("no injection had any effect; flips are not landing")
	}
}

func TestPopulationSmallerThanMachine(t *testing.T) {
	// The same program's machine-level population must exceed LLFI's.
	img, _ := compileInstrumented(t)
	m := vm.New(img)
	bindOut(m)
	plib := &llfi.Lib{Target: -1}
	plib.Bind(m)
	cfg := fault.DefaultConfig()
	var n int64
	pinfi.Observe(m, pinfi.CostModel{}, pinfi.TargetMap(img, cfg), func(int32) bool { n++; return true })
	if plib.Count >= n {
		t.Fatalf("LLFI population %d not smaller than machine population %d", plib.Count, n)
	}
}

func TestInstrumentationAddsCallsToBinary(t *testing.T) {
	plainM := buildModule()
	opt.Optimize(plainM, opt.O2)
	plainRes, err := codegen.Compile(plainM)
	if err != nil {
		t.Fatal(err)
	}
	img, _ := compileInstrumented(t)
	plainImg, err := asm.Assemble(plainRes.Prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Instrs) <= len(plainImg.Instrs)*2 {
		t.Fatalf("instrumented binary only grew from %d to %d instructions; expected call-site blowup",
			len(plainImg.Instrs), len(img.Instrs))
	}
}
