package experiments_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/opt"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func smallSuite(t *testing.T) *experiments.Suite {
	t.Helper()
	app, err := workloads.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	app2, err := workloads.ByName("HPCCG")
	if err != nil {
		t.Fatal(err)
	}
	s, err := experiments.RunSuite(experiments.Config{
		Apps: []campaign.App{app, app2}, Trials: 120, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuiteArtifacts(t *testing.T) {
	s := smallSuite(t)
	t6 := s.Table6()
	for _, want := range []string{"EP", "HPCCG", "LLFI", "REFINE", "PINFI", "Crash"} {
		if !strings.Contains(t6, want) {
			t.Fatalf("Table6 missing %q:\n%s", want, t6)
		}
	}
	f4 := s.Figure4()
	if !strings.Contains(f4, "[") || !strings.Contains(f4, "CI") {
		t.Fatalf("Figure4 missing confidence intervals")
	}
	t4 := s.Table4("EP")
	if !strings.Contains(t4, "contingency") {
		t.Fatalf("Table4 malformed")
	}
	t5, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t5, "LLFI vs PINFI") || !strings.Contains(t5, "REFINE vs PINFI") {
		t.Fatalf("Table5 missing comparisons:\n%s", t5)
	}
	f5 := s.Figure5()
	if !strings.Contains(f5, "Total") {
		t.Fatalf("Figure5 missing total row")
	}
}

func TestSuiteCountsConsistent(t *testing.T) {
	s := smallSuite(t)
	for app, tools := range s.Results {
		for tool, res := range tools {
			if res.Counts.Total() != s.Trials {
				t.Fatalf("%s/%s: %d outcomes for %d trials", app, tool, res.Counts.Total(), s.Trials)
			}
			if res.Cycles <= 0 {
				t.Fatalf("%s/%s: no cycles recorded", app, tool)
			}
		}
	}
}

func TestSpeedupsOrdering(t *testing.T) {
	s := smallSuite(t)
	l, r := s.Speedups()
	if l <= r {
		t.Fatalf("LLFI (%v) must be slower than REFINE (%v)", l, r)
	}
	if r < 0.5 || r > 3 {
		t.Fatalf("REFINE normalization %v outside sane band", r)
	}
}

func TestPaperDataTables(t *testing.T) {
	p6 := experiments.PaperTable6()
	if len(p6) != 14 {
		t.Fatalf("paper table has %d apps", len(p6))
	}
	for app, tools := range p6 {
		for tool, c := range tools {
			if c.Total() != 1068 {
				t.Fatalf("%s/%s: paper row sums to %d, want 1068", app, tool, c.Total())
			}
		}
	}
	p5 := experiments.PaperFigure5()
	if p5["Total"][0] != 3.9 || p5["Total"][1] != 1.2 {
		t.Fatalf("paper Figure 5 totals wrong: %v", p5["Total"])
	}
}

// TestExplicitO0SurvivesDefaulting guards the zero-value regression: a
// config with an explicit Opt: opt.O0 but unset FI.Classes must run at O0 —
// previously the Classes==0 check reset the whole Build block to defaults,
// silently clobbering the optimization level.
func TestExplicitO0SurvivesDefaulting(t *testing.T) {
	app, err := workloads.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	run := func(b campaign.BuildOptions) *campaign.Result {
		t.Helper()
		s, err := experiments.RunSuite(experiments.Config{
			Apps: []campaign.App{app}, Tools: []campaign.Tool{campaign.PINFI},
			Trials: 10, Seed: 1, Build: b, Cache: campaign.NewCache(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Results[app.Name][campaign.PINFI.Name()]
	}
	o0 := run(campaign.BuildOptions{Opt: opt.O0}) // Classes deliberately unset
	def := run(campaign.BuildOptions{})
	// O0 keeps locals in stack memory, so its dynamic run (and hence the 10×
	// timeout budget) is strictly longer than the O2 default's.
	if o0.Profile.Budget <= def.Profile.Budget {
		t.Fatalf("explicit O0 was clobbered: O0 budget %d <= default budget %d",
			o0.Profile.Budget, def.Profile.Budget)
	}
}

// TestSuiteToolSubset: a suite restricted to a tool subset produces its
// tables for exactly those tools, and baseline-dependent analyses fail
// cleanly when PINFI is absent.
func TestSuiteToolSubset(t *testing.T) {
	app, err := workloads.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	s, err := experiments.RunSuite(experiments.Config{
		Apps: []campaign.App{app}, Tools: []campaign.Tool{campaign.REFINE},
		Trials: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t6 := s.Table6()
	if !strings.Contains(t6, "REFINE") || strings.Contains(t6, "LLFI") || strings.Contains(t6, "PINFI") {
		t.Fatalf("Table6 should cover only the REFINE subset:\n%s", t6)
	}
	if _, err := s.ChiSquared(campaign.REFINE); err == nil {
		t.Fatal("ChiSquared without the PINFI baseline must error")
	}
	// Baseline-dependent renderers degrade to skip notices, never panic.
	if f5 := s.Figure5(); !strings.Contains(f5, "skipped") {
		t.Fatalf("Figure5 without PINFI should be skipped, got:\n%s", f5)
	}
	if t4 := s.Table4(app.Name); !strings.Contains(t4, "skipped") {
		t.Fatalf("Table4 without LLFI/PINFI should be skipped, got:\n%s", t4)
	}
	if v := s.NormalizedTime(campaign.REFINE); !math.IsNaN(v) {
		t.Fatalf("NormalizedTime without PINFI = %v, want NaN", v)
	}
}

// TestPaperSuiteVerdict pins the Table 5 verdict the published Table 6
// counts give under this package's test: LLFI differs from PINFI on all 14
// apps, REFINE on one — CoMD, at p ≈ 0.047, just inside α = 0.05.
func TestPaperSuiteVerdict(t *testing.T) {
	s := experiments.PaperSuite()
	sig, err := s.SummaryCounts()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Order) != 14 || s.Trials != 1068 || sig["LLFI"] != 14 || sig["REFINE"] != 1 || len(sig) != 2 {
		t.Fatalf("paper suite: %d apps, n=%d, verdict %v; want 14 apps, n=1068, LLFI 14 and REFINE 1", len(s.Order), s.Trials, sig)
	}
	rows, err := s.ChiSquared(campaign.REFINE)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Test.Significant != (r.App == "CoMD") || (r.App == "CoMD" && r.Test.P < 0.04) {
			t.Errorf("REFINE vs PINFI on %s: p = %.3g", r.App, r.Test.P)
		}
	}
}

// renamedTool wraps an existing injector under a registry-independent value
// with the same name — the "uncomparable/name-equal tool instance" shape the
// Suite.has fix covers. The struct carries a slice field, so comparing two
// of them with == would panic at runtime.
type renamedTool struct {
	campaign.ToolName
	campaign.BinaryLevel
	pad []int // uncomparable dynamic type on purpose
}

func (renamedTool) Trial(m *vm.Machine, b *campaign.Binary, prof *campaign.Profile, costs pinfi.CostModel, from, target int64, rng *fault.RNG, tail *campaign.Tail) fault.Record {
	return campaign.PINFI.Trial(m, b, prof, costs, from, target, rng, tail)
}

// TestHasComparesByName: Suite.has and the comparison tables must match
// tools by stable name, not interface identity — and must not panic on an
// injector whose dynamic type is uncomparable.
func TestHasComparesByName(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run too heavy for -short")
	}
	app, err := workloads.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	// A value (not pointer) with a slice field: an uncomparable dynamic
	// type. Identity-based tool comparison or Tool-keyed result maps would
	// panic at runtime on this injector; name-based handling must not.
	pinfiAlike := renamedTool{ToolName: "PINFI", pad: []int{1}}
	cfg := experiments.Config{
		Apps:   []campaign.App{app},
		Tools:  []campaign.Tool{campaign.LLFI, pinfiAlike},
		Trials: 40, Seed: 5,
		Cache: campaign.NewCache(),
	}
	s, err := experiments.RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Table5 resolves the baseline through campaign.PINFI (a different
	// instance with the same name): the name-based lookup must find the
	// suite's PINFI-named tool instead of erroring or panicking.
	if _, err := s.ChiSquared(campaign.LLFI); err != nil {
		t.Fatalf("ChiSquared with name-equal baseline: %v", err)
	}
	if s.Figure5() == "Figure 5: skipped (requires the PINFI baseline in the suite)\n" {
		t.Fatal("Figure5 skipped despite a name-equal PINFI baseline")
	}
}
