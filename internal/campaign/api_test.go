package campaign_test

// Tests for the Campaign API v2: the injector registry, the functional-
// options runner, context cancellation, and the streaming observer's
// equivalence with buffered records.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/mir"
	"repro/internal/pinfi"
	"repro/internal/vm"
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

// TestObserverMatchesRecords is the streaming-runner keystone: the observer
// stream must match the buffered Records bit-for-bit, in trial order,
// regardless of worker count and without Records being enabled.
func TestObserverMatchesRecords(t *testing.T) {
	const trials = 120
	ctx := context.Background()
	buffered, err := campaign.New(testApp, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(7), campaign.WithWorkers(1),
		campaign.WithCache(nil), campaign.WithRecords(),
	).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(buffered.Records) != trials {
		t.Fatalf("buffered run recorded %d trials, want %d", len(buffered.Records), trials)
	}
	for _, workers := range []int{1, 3, 8} {
		var streamed []campaign.TrialResult
		res, err := campaign.New(testApp, campaign.REFINE,
			campaign.WithTrials(trials), campaign.WithSeed(7), campaign.WithWorkers(workers),
			campaign.WithCache(nil),
			campaign.WithObserver(func(i int, tr campaign.TrialResult) {
				if i != len(streamed) {
					t.Errorf("workers=%d: observer called with i=%d, want %d (out of order)", workers, i, len(streamed))
				}
				streamed = append(streamed, tr)
			}),
		).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != nil {
			t.Errorf("workers=%d: Records buffered without WithRecords", workers)
		}
		if len(streamed) != trials {
			t.Fatalf("workers=%d: observer saw %d trials, want %d", workers, len(streamed), trials)
		}
		for i := range streamed {
			if streamed[i] != buffered.Records[i] {
				t.Fatalf("workers=%d: trial %d differs:\nstreamed %+v\nbuffered %+v",
					workers, i, streamed[i], buffered.Records[i])
			}
		}
		if res.Counts != buffered.Counts || res.Cycles != buffered.Cycles {
			t.Fatalf("workers=%d: aggregates differ: %+v/%d vs %+v/%d",
				workers, res.Counts, res.Cycles, buffered.Counts, buffered.Cycles)
		}
	}
}

// TestContextCancellation verifies a campaign stops promptly when its
// context is cancelled mid-run and returns a partial-safe result: the
// contiguous prefix of completed trials with matching aggregates.
func TestContextCancellation(t *testing.T) {
	const trials = 100000 // far more than can finish before the cancel
	ctx, cancel := context.WithCancel(context.Background())
	var seen int
	start := time.Now()
	res, err := campaign.New(testApp, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(1), campaign.WithWorkers(4),
		campaign.WithRecords(),
		campaign.WithObserver(func(i int, tr campaign.TrialResult) {
			seen++
			if seen == 25 {
				cancel()
			}
		}),
	).Run(ctx)
	if err == nil {
		t.Fatalf("cancelled campaign returned no error (completed %d trials in %v)", res.Trials, time.Since(start))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled campaign must return the partial result")
	}
	if res.Trials <= 0 || res.Trials >= trials {
		t.Fatalf("partial result covers %d trials, want a strict prefix of %d", res.Trials, trials)
	}
	if len(res.Records) != res.Trials {
		t.Fatalf("partial Records length %d != partial Trials %d", len(res.Records), res.Trials)
	}
	if res.Counts.Total() != res.Trials {
		t.Fatalf("partial Counts total %d != partial Trials %d", res.Counts.Total(), res.Trials)
	}
	// The delivered prefix must match a fresh full run's prefix exactly.
	full, err := campaign.New(testApp, campaign.REFINE,
		campaign.WithTrials(res.Trials), campaign.WithSeed(1), campaign.WithWorkers(1),
		campaign.WithRecords(),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Records {
		if res.Records[i] != full.Records[i] {
			t.Fatalf("partial trial %d differs from uncancelled run", i)
		}
	}
}

// TestCancelledBeforeStart: an already-cancelled context fails fast without
// running any trials.
func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := campaign.New(testApp, campaign.REFINE,
		campaign.WithTrials(50), campaign.WithObserver(func(int, campaign.TrialResult) {
			t.Error("observer invoked under a cancelled context")
		}),
	).Run(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res=%v)", err, res)
	}
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
