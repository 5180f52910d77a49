package campaign_test

// Tests for the Campaign API v2: the injector registry, the functional-
// options runner and its argument checks. What the runner computes — every
// way a campaign can run against one reference — is internal/experiments'
// TestEquivalenceMatrix.

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/mir"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func TestRegistryRoundTrip(t *testing.T) {
	tools := campaign.RegisteredTools()
	if len(tools) < 3 {
		t.Fatalf("expected at least the paper's three tools registered, got %d", len(tools))
	}
	for _, want := range tools {
		got, err := campaign.ToolByName(want.Name())
		if err != nil {
			t.Fatalf("ToolByName(%q): %v", want.Name(), err)
		}
		if got != want {
			t.Fatalf("ToolByName(%q) returned a different injector", want.Name())
		}
	}
	// The paper's three are registered under their presentation names and
	// resolve to the exported singletons.
	for name, want := range map[string]campaign.Tool{
		"LLFI": campaign.LLFI, "REFINE": campaign.REFINE, "PINFI": campaign.PINFI,
	} {
		got, err := campaign.ToolByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("ToolByName(%q) != campaign.%s", name, name)
		}
	}
	if _, err := campaign.ToolByName("NO-SUCH-TOOL"); err == nil {
		t.Fatal("ToolByName on an unknown name must error")
	}
}

// stubInjector is a minimal Injector for registry-behavior tests.
type stubInjector struct{ campaign.ToolName }

func (s stubInjector) Level() string                                        { return s.Name() }
func (stubInjector) InstrumentIR(*ir.Module, fault.Config) int              { return 0 }
func (stubInjector) InstrumentMachine(*mir.Prog, fault.Config) (int, error) { return 0, nil }
func (stubInjector) Profile(*vm.Machine, *campaign.Binary, pinfi.CostModel) (int64, []uint64) {
	return 0, nil
}
func (stubInjector) Replay(*vm.Machine, *campaign.Binary, []int64, func(int64)) {}
func (stubInjector) Trial(*vm.Machine, *campaign.Binary, *campaign.Profile, pinfi.CostModel, int64, int64, *fault.RNG, *campaign.Tail) fault.Record {
	return fault.Record{}
}

func TestRegisterRejectsDuplicatesAndEmptyNames(t *testing.T) {
	mustPanic := func(label string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", label)
			}
		}()
		fn()
	}
	mustPanic("duplicate name", func() {
		campaign.Register(stubInjector{ToolName: "REFINE"})
	})
	mustPanic("empty name", func() {
		campaign.Register(stubInjector{ToolName: ""})
	})
}

// TestTrialSeedIndependentStreams: different tools draw from different seed
// streams for the same base seed and trial index (name-keyed salts).
func TestTrialSeedIndependentStreams(t *testing.T) {
	tools := campaign.RegisteredTools()
	for i := 0; i < len(tools); i++ {
		for j := i + 1; j < len(tools); j++ {
			if campaign.TrialSeed(1, tools[i], 0) == campaign.TrialSeed(1, tools[j], 0) {
				t.Fatalf("tools %s and %s share a seed stream", tools[i].Name(), tools[j].Name())
			}
		}
	}
	if campaign.TrialSeed(1, campaign.REFINE, 0) == campaign.TrialSeed(1, campaign.REFINE, 1) {
		t.Fatal("consecutive trials share a seed")
	}
	if campaign.TrialSeed(1, campaign.REFINE, 0) != campaign.TrialSeed(1, campaign.REFINE, 0) {
		t.Fatal("TrialSeed is not deterministic")
	}
}

func TestTrialRangeInvalid(t *testing.T) {
	_, err := campaign.New(testApp, campaign.REFINE,
		campaign.WithTrials(10), campaign.WithTrialRange(12, 10), campaign.WithCache(nil)).Run(context.Background())
	if err == nil {
		t.Fatal("invalid trial range must error")
	}
}

// TestMutateFuncUnknownFunction: the mutator rejects functions the app
// doesn't have instead of silently running unmutated.
func TestMutateFuncUnknownFunction(t *testing.T) {
	app, err := workloads.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.MutateFunc(app, "no_such_func"); err == nil {
		t.Fatal("MutateFunc accepted an unknown function")
	}
}
