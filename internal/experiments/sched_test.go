package experiments_test

// Suite-level scheduler coverage: a suite on a caller-supplied shared
// executor must reproduce the one on its suite-private executor bit for bit
// — outcome counts, cycles, and the chi-squared verdicts derived from them —
// across executor sizes (1 worker = serial), and a name-equal tool instance
// must match the suite's tables (the Suite.has fix).

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/sched"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func schedConfig(t *testing.T) experiments.Config {
	t.Helper()
	var apps []campaign.App
	for _, name := range []string{"EP", "CG"} {
		a, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	return experiments.Config{Apps: apps, Trials: 60, Seed: 9}
}

func equalSuites(t *testing.T, label string, a, b *experiments.Suite) {
	t.Helper()
	for _, app := range a.Order {
		for _, tool := range a.Tools {
			ra, rb := a.Results[app][tool.Name()], b.Results[app][tool.Name()]
			if ra == nil || rb == nil {
				t.Fatalf("%s: %s/%s missing result", label, app, tool.Name())
			}
			if ra.Counts != rb.Counts || ra.Cycles != rb.Cycles {
				t.Fatalf("%s: %s/%s differ: %+v/%d vs %+v/%d",
					label, app, tool.Name(), ra.Counts, ra.Cycles, rb.Counts, rb.Cycles)
			}
		}
	}
	sa, err := a.SummaryCounts()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.SummaryCounts()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range sa {
		if sb[k] != v {
			t.Fatalf("%s: chi-squared verdicts differ for %s: %d vs %d", label, k, v, sb[k])
		}
	}
}

// TestSuiteSerialVsScheduled: a suite on a shared executor, at 1 and at many
// workers, and one on a suite-private executor of the default size are
// bit-identical to the serial suite (a suite-private executor of one worker).
func TestSuiteSerialVsScheduled(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-app suites are too heavy for -short")
	}
	cfg := schedConfig(t)
	cfg.Cache = campaign.NewCache()
	cfg.Workers = 1
	serial, err := experiments.RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := schedConfig(t)
	pcfg.Cache = campaign.NewCache()
	private, err := experiments.RunSuite(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	equalSuites(t, "serial vs private default-size executor", serial, private)
	for _, workers := range []int{1, 8} {
		ex := sched.New(workers)
		scfg := schedConfig(t)
		scfg.Cache = campaign.NewCache()
		scfg.Sched = ex
		shared, err := experiments.RunSuite(scfg)
		ex.Close()
		if err != nil {
			t.Fatal(err)
		}
		equalSuites(t, "serial vs shared executor", serial, shared)
	}
}

// TestSuiteScheduledCancellation: cancelling a scheduled suite surfaces a
// wrapped ctx error promptly instead of running to completion.
func TestSuiteScheduledCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-app suites are too heavy for -short")
	}
	ex := sched.New(2)
	defer ex.Close()
	cfg := schedConfig(t)
	cfg.Trials = 100000
	cfg.Cache = campaign.NewCache()
	cfg.Sched = ex
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	cfg.Progress = func(string) { done++ }
	go func() {
		// Cancel as soon as the suite is plausibly mid-flight.
		cancel()
	}()
	if _, err := experiments.RunSuiteContext(ctx, cfg); err == nil {
		t.Fatal("cancelled suite returned nil error")
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
