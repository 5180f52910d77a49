package multibit_test

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/multibit"
	"repro/internal/pinfi"
	"repro/internal/workloads"
)

// The package under test registers itself on import; these tests exercise it
// exclusively through the public campaign API — the extensibility contract.

func TestRegisteredThroughPublicAPI(t *testing.T) {
	tool, err := campaign.ToolByName(multibit.Name)
	if err != nil {
		t.Fatal(err)
	}
	if tool != multibit.Injector {
		t.Fatal("registry returned a different injector for REFINE2")
	}
	found := false
	for _, rt := range campaign.RegisteredTools() {
		if rt == multibit.Injector {
			found = true
		}
	}
	if !found {
		t.Fatal("REFINE2 missing from RegisteredTools")
	}
	// The paper's presentation list stays the paper's: extensions appear in
	// the registry, not in campaign.Tools.
	for _, pt := range campaign.Tools {
		if pt == multibit.Injector {
			t.Fatal("extension leaked into campaign.Tools")
		}
	}
}

func testAppCG(t *testing.T) campaign.App {
	t.Helper()
	app, err := workloads.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestSharesRefinePipeline: REFINE2 reuses REFINE's build pass and profiling
// step, so its static sites and dynamic target population match REFINE's
// exactly — only the trial-time fault model differs.
func TestSharesRefinePipeline(t *testing.T) {
	app := testAppCG(t)
	o := campaign.DefaultBuildOptions()
	r1, err := campaign.BuildBinary(app, campaign.REFINE, o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := campaign.BuildBinary(app, multibit.Injector, o)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sites != r2.Sites {
		t.Fatalf("static sites differ: REFINE %d, REFINE2 %d", r1.Sites, r2.Sites)
	}
	p1, err := r1.RunProfile(pinfi.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r2.RunProfile(pinfi.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	if p1.Targets != p2.Targets {
		t.Fatalf("target populations differ: REFINE %d, REFINE2 %d", p1.Targets, p2.Targets)
	}
}

// TestDoubleFlipChangesOutcomes: with identical seeds (identical target and
// first-flip draws), the second flip must change at least some outcomes
// relative to single-bit REFINE — and for seeds where the second fault never
// lands the outcomes coincide, so the records stay comparable.
func TestDoubleFlipChangesOutcomes(t *testing.T) {
	app := testAppCG(t)
	o := campaign.DefaultBuildOptions()
	costs := pinfi.DefaultCosts()
	single, err := campaign.BuildBinary(app, campaign.REFINE, o)
	if err != nil {
		t.Fatal(err)
	}
	double, err := campaign.BuildBinary(app, multibit.Injector, o)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := single.RunProfile(costs)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := double.RunProfile(costs)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for seed := uint64(1); seed <= 200; seed++ {
		rs := single.RunTrial(ps, costs, seed)
		rd := double.RunTrial(pd, costs, seed)
		// The first fault is the same draw in both models.
		if rs.Rec.DynIdx != rd.Rec.DynIdx || rs.Rec.SiteID != rd.Rec.SiteID {
			t.Fatalf("seed %d: first-fault site diverged: %s vs %s", seed, rs.Rec, rd.Rec)
		}
		if rs.Outcome != rd.Outcome {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("double bit-flip never changed an outcome over 200 seeds — second fault not landing")
	}
}

// TestCampaignDeterministic: REFINE2 campaigns through the v2 runner are
// deterministic across worker counts and cache states, like the built-ins.
func TestCampaignDeterministic(t *testing.T) {
	app := testAppCG(t)
	ctx := context.Background()
	run := func(workers int, cache *campaign.Cache) (*campaign.Result, []campaign.TrialResult) {
		t.Helper()
		var trs []campaign.TrialResult
		res, err := campaign.New(app, multibit.Injector,
			campaign.WithTrials(60), campaign.WithSeed(7),
			campaign.WithWorkers(workers), campaign.WithCache(cache),
			campaign.WithObserver(func(_ int, tr campaign.TrialResult) { trs = append(trs, tr) }),
		).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res, trs
	}
	w1, w1trs := run(1, nil)
	w8, w8trs := run(8, nil)
	cached, cachedTrs := run(4, campaign.NewCache())
	if len(w1trs) != 60 || len(w8trs) != 60 || len(cachedTrs) != 60 {
		t.Fatalf("observers saw %d / %d / %d trials, want 60", len(w1trs), len(w8trs), len(cachedTrs))
	}
	for i := range w1trs {
		if w1trs[i] != w8trs[i] {
			t.Fatalf("trial %d differs across worker counts", i)
		}
		if w1trs[i] != cachedTrs[i] {
			t.Fatalf("trial %d differs across cache states", i)
		}
	}
	if w1.Counts != w8.Counts || w1.Counts != cached.Counts {
		t.Fatalf("counts differ: %+v / %+v / %+v", w1.Counts, w8.Counts, cached.Counts)
	}
	if w1.Counts.Total() != 60 {
		t.Fatalf("counts total %d != 60 trials", w1.Counts.Total())
	}
	if w1.Counts.Crash == 0 && w1.Counts.SOC == 0 {
		t.Fatal("degenerate REFINE2 campaign: no faults manifested")
	}
}
