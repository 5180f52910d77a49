package campaign_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/pinfi"
	"repro/internal/workloads"
)

// miniApp is a small but structurally rich program: nested loops, function
// calls, FP arithmetic, array traffic and data-dependent branches.
func miniApp() *ir.Module {
	m := ir.NewModule("mini")
	m.DeclareHost(ir.HostDecl{Name: "out_i64", Params: []ir.Type{ir.I64}, Ret: ir.I64})
	m.DeclareHost(ir.HostDecl{Name: "out_f64", Params: []ir.Type{ir.F64}, Ret: ir.I64})
	const n = 32
	m.AddGlobal(ir.Global{Name: "v", Size: n * 8})
	b := ir.NewBuilder(m)

	// dot(a_scale) = Σ v[i] * (v[i] + a_scale)
	b.NewFunc("dot", ir.F64, ir.F64)
	vp0 := b.GlobalAddr("v")
	acc := b.NewVar(ir.F64, b.ConstF(0))
	b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
		x := b.Load(ir.F64, b.Index(vp0, i))
		acc.Set(b.FAdd(acc.Get(), b.FMul(x, b.FAdd(x, b.Param(0)))))
	})
	b.Ret(acc.Get())

	b.NewFunc("main", ir.I64)
	vp := b.GlobalAddr("v")
	b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
		x := b.SIToFP(i)
		b.Store(b.FDiv(x, b.ConstF(3.5)), b.Index(vp, i))
	})
	s := b.NewVar(ir.F64, b.ConstF(0))
	b.Loop(b.ConstI(0), b.ConstI(6), b.ConstI(1), func(k *ir.Value) {
		r := b.Call("dot", b.SIToFP(k))
		even := b.ICmp(ir.EQ, b.SRem(k, b.ConstI(2)), b.ConstI(0))
		b.If(even, func() {
			s.Set(b.FAdd(s.Get(), r))
		}, func() {
			s.Set(b.FSub(s.Get(), b.FSqrt(b.FAbs(r))))
		})
	})
	b.Call("out_f64", s.Get())
	b.Call("out_i64", b.ConstI(12345))
	b.Ret(b.ConstI(0))
	return m
}

var testApp = campaign.App{Name: "mini", Build: miniApp}

func buildAll(t *testing.T) map[campaign.Tool]*campaign.Binary {
	t.Helper()
	bins := map[campaign.Tool]*campaign.Binary{}
	for _, tool := range campaign.Tools {
		bin, err := campaign.BuildBinary(testApp, tool, campaign.DefaultBuildOptions())
		if err != nil {
			t.Fatalf("build %s: %v", tool, err)
		}
		bins[tool] = bin
	}
	return bins
}

func profileAll(t *testing.T, bins map[campaign.Tool]*campaign.Binary) map[campaign.Tool]*campaign.Profile {
	t.Helper()
	profs := map[campaign.Tool]*campaign.Profile{}
	for tool, bin := range bins {
		p, err := bin.RunProfile(pinfi.DefaultCosts())
		if err != nil {
			t.Fatalf("profile %s: %v", tool, err)
		}
		profs[tool] = p
	}
	return profs
}

func TestGoldenOutputsAgreeAcrossTools(t *testing.T) {
	bins := buildAll(t)
	profs := profileAll(t, bins)
	want := profs[campaign.PINFI].Golden
	for tool, p := range profs {
		if len(p.Golden) != len(want) {
			t.Fatalf("%s golden length %d, want %d", tool, len(p.Golden), len(want))
		}
		for i := range want {
			if p.Golden[i] != want[i] {
				t.Fatalf("%s golden[%d] = %#x, want %#x — instrumentation is not transparent",
					tool, i, p.Golden[i], want[i])
			}
		}
	}
}

// TestPopulationParity verifies the core accuracy claim mechanism: REFINE's
// backend instrumentation sees exactly the same dynamic target population as
// binary-level instrumentation, while IR-level instrumentation sees a
// different (smaller) one that misses backend-generated instructions.
func TestPopulationParity(t *testing.T) {
	bins := buildAll(t)
	profs := profileAll(t, bins)
	if profs[campaign.REFINE].Targets != profs[campaign.PINFI].Targets {
		t.Fatalf("REFINE targets %d != PINFI targets %d",
			profs[campaign.REFINE].Targets, profs[campaign.PINFI].Targets)
	}
	if profs[campaign.LLFI].Targets >= profs[campaign.PINFI].Targets {
		t.Fatalf("LLFI population (%d) should be smaller than machine population (%d)",
			profs[campaign.LLFI].Targets, profs[campaign.PINFI].Targets)
	}
}

// TestRefinePinfiEquivalence is the keystone property: for the same seed
// (hence the same dynamic target, operand and bit), a REFINE-instrumented
// binary and PINFI on the plain binary must produce the *identical* outcome.
// This is the semantic foundation of the paper's Table 5 result.
func TestRefinePinfiEquivalence(t *testing.T) {
	bins := buildAll(t)
	profs := profileAll(t, bins)
	costs := pinfi.DefaultCosts()
	mismatch := 0
	for seed := uint64(1); seed <= 400; seed++ {
		rp := bins[campaign.PINFI].RunTrial(profs[campaign.PINFI], costs, seed)
		rr := bins[campaign.REFINE].RunTrial(profs[campaign.REFINE], costs, seed)
		if rp.Outcome != rr.Outcome {
			mismatch++
			t.Errorf("seed %d: PINFI %s (%s) vs REFINE %s (%s)",
				seed, rp.Outcome, rp.Rec, rr.Outcome, rr.Rec)
			if mismatch > 5 {
				t.Fatalf("too many mismatches")
			}
		}
	}
}

// TestRefinePinfiEquivalenceOnRealWorkloads extends the keystone property to
// actual benchmark kernels (a diverse structural sample: FP stencil CG,
// integer data cube, irregular gather/scatter).
func TestRefinePinfiEquivalenceOnRealWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("real-workload equivalence sweep is too heavy for -short (race CI)")
	}
	for _, name := range []string{"HPCCG", "DC", "UA"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var bins [2]*campaign.Binary
			var profs [2]*campaign.Profile
			for i, tool := range []campaign.Tool{campaign.PINFI, campaign.REFINE} {
				bins[i], err = campaign.BuildBinary(app, tool, campaign.DefaultBuildOptions())
				if err != nil {
					t.Fatal(err)
				}
				profs[i], err = bins[i].RunProfile(pinfi.DefaultCosts())
				if err != nil {
					t.Fatal(err)
				}
			}
			if profs[0].Targets != profs[1].Targets {
				t.Fatalf("population mismatch: %d vs %d", profs[0].Targets, profs[1].Targets)
			}
			for seed := uint64(1); seed <= 60; seed++ {
				rp := bins[0].RunTrial(profs[0], pinfi.DefaultCosts(), seed)
				rr := bins[1].RunTrial(profs[1], pinfi.DefaultCosts(), seed)
				if rp.Outcome != rr.Outcome {
					t.Errorf("seed %d: PINFI %s (%s) vs REFINE %s (%s)",
						seed, rp.Outcome, rp.Rec, rr.Outcome, rr.Rec)
				}
			}
		})
	}
}

func TestTrialsAreDeterministic(t *testing.T) {
	bins := buildAll(t)
	profs := profileAll(t, bins)
	costs := pinfi.DefaultCosts()
	for _, tool := range campaign.Tools {
		a := bins[tool].RunTrial(profs[tool], costs, 42)
		b := bins[tool].RunTrial(profs[tool], costs, 42)
		if a.Outcome != b.Outcome || a.Cycles != b.Cycles || a.Rec != b.Rec {
			t.Fatalf("%s: non-deterministic trials: %+v vs %+v", tool, a, b)
		}
	}
}

func TestOutcomeMixIsNonTrivial(t *testing.T) {
	bins := buildAll(t)
	profs := profileAll(t, bins)
	costs := pinfi.DefaultCosts()
	for _, tool := range campaign.Tools {
		var c fault.Counts
		for seed := uint64(0); seed < 300; seed++ {
			c.Add(bins[tool].RunTrial(profs[tool], costs, seed).Outcome)
		}
		if c.Benign == 0 || c.Crash == 0 {
			t.Fatalf("%s: degenerate outcome mix %+v", tool, c)
		}
	}
}

func TestInstrumentationSiteCounts(t *testing.T) {
	bins := buildAll(t)
	if bins[campaign.REFINE].Sites == 0 {
		t.Fatalf("REFINE instrumented no sites")
	}
	if bins[campaign.LLFI].Sites == 0 {
		t.Fatalf("LLFI instrumented no sites")
	}
	if bins[campaign.PINFI].Sites != 0 {
		t.Fatalf("PINFI should not instrument statically")
	}
}

func TestClassFilterRestrictsPopulation(t *testing.T) {
	opts := campaign.DefaultBuildOptions()
	all, err := campaign.BuildBinary(testApp, campaign.REFINE, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	opts.FI.Classes = fault.ClassStack
	stackOnly, err := campaign.BuildBinary(testApp, campaign.REFINE, opts)
	if err != nil {
		t.Fatalf("build stack-only: %v", err)
	}
	if stackOnly.Sites == 0 || stackOnly.Sites >= all.Sites {
		t.Fatalf("class filter: stack=%d all=%d", stackOnly.Sites, all.Sites)
	}
}

func TestFuncFilterRestrictsPopulation(t *testing.T) {
	opts := campaign.DefaultBuildOptions()
	opts.FI.Funcs = []string{"dot"}
	bin, err := campaign.BuildBinary(testApp, campaign.REFINE, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	allBin, err := campaign.BuildBinary(testApp, campaign.REFINE, campaign.DefaultBuildOptions())
	if err != nil {
		t.Fatalf("build all: %v", err)
	}
	if bin.Sites == 0 || bin.Sites >= allBin.Sites {
		t.Fatalf("func filter: dot=%d all=%d", bin.Sites, allBin.Sites)
	}
	// PINFI on the same filter must see the same dynamic population.
	opts2 := campaign.DefaultBuildOptions()
	opts2.FI.Funcs = []string{"dot"}
	pbin, err := campaign.BuildBinary(testApp, campaign.PINFI, opts2)
	if err != nil {
		t.Fatalf("build pinfi: %v", err)
	}
	pp, err := pbin.RunProfile(pinfi.DefaultCosts())
	if err != nil {
		t.Fatalf("profile pinfi: %v", err)
	}
	rp, err := bin.RunProfile(pinfi.DefaultCosts())
	if err != nil {
		t.Fatalf("profile refine: %v", err)
	}
	if pp.Targets != rp.Targets {
		t.Fatalf("filtered populations differ: pinfi %d, refine %d", pp.Targets, rp.Targets)
	}
}
