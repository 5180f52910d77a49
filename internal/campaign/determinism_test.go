package campaign_test

// Determinism suite for the execution-engine overhaul: a fixed-seed
// campaign must produce identical Counts, total Cycles, and per-trial
// Records regardless of worker count and regardless of whether the binary
// and profile came from the build cache or a fresh build.

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/pinfi"
	"repro/internal/workloads"
)

func detCosts() pinfi.CostModel { return pinfi.DefaultCosts() }

const (
	detTrials = 60
	detSeed   = 7
)

func detApp(t *testing.T) campaign.App {
	t.Helper()
	app, err := workloads.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// runCampaign runs one buffered campaign to completion.
func runCampaign(t *testing.T, app campaign.App, tool campaign.Tool, n int, seed uint64, workers int, o campaign.BuildOptions, extra ...campaign.Option) *campaign.Result {
	t.Helper()
	opts := append([]campaign.Option{
		campaign.WithTrials(n), campaign.WithSeed(seed), campaign.WithWorkers(workers),
		campaign.WithBuildOptions(o), campaign.WithRecords(),
	}, extra...)
	res, err := campaign.New(app, tool, opts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResult(t *testing.T, label string, a, b *campaign.Result) {
	t.Helper()
	if a.Counts != b.Counts {
		t.Errorf("%s: counts differ: %+v vs %+v", label, a.Counts, b.Counts)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("%s: total cycles differ: %d vs %d", label, a.Cycles, b.Cycles)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("%s: record counts differ: %d vs %d", label, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Errorf("%s: trial %d differs:\n%+v\nvs\n%+v", label, i, a.Records[i], b.Records[i])
			return
		}
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh CG builds per tool are too heavy for -short (race CI); TestObserverMatchesRecords covers worker-count determinism there")
	}
	app := detApp(t)
	o := campaign.DefaultBuildOptions()
	for _, tool := range campaign.Tools {
		w1 := runCampaign(t, app, tool, detTrials, detSeed, 1, o, campaign.WithCache(nil))
		w8 := runCampaign(t, app, tool, detTrials, detSeed, 8, o, campaign.WithCache(nil))
		sameResult(t, tool.String()+" workers=1 vs workers=8", w1, w8)
	}
}

func TestCampaignDeterministicAcrossCacheStates(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh CG builds per tool are too heavy for -short (race CI)")
	}
	app := detApp(t)
	o := campaign.DefaultBuildOptions()
	cache := campaign.NewCache()
	for _, tool := range campaign.Tools {
		fresh := runCampaign(t, app, tool, detTrials, detSeed, 4, o, campaign.WithCache(nil))
		cold := runCampaign(t, app, tool, detTrials, detSeed, 4, o, campaign.WithCache(cache))
		warm := runCampaign(t, app, tool, detTrials, detSeed, 4, o, campaign.WithCache(cache))
		sameResult(t, tool.String()+" fresh vs cold cache", fresh, cold)
		sameResult(t, tool.String()+" cold vs warm cache", cold, warm)
	}
	// Three tools were built and profiled exactly once each.
	if got := cache.Len(); got != len(campaign.Tools) {
		t.Errorf("cache entries = %d, want %d", got, len(campaign.Tools))
	}
}

// TestCampaignStreamingMatchesBuffered: for every tool, a streaming run
// (observer, no Records buffer) produces bit-identical trial results and
// aggregate counts to a buffered run, across worker counts.
func TestCampaignStreamingMatchesBuffered(t *testing.T) {
	if testing.Short() {
		t.Skip("CG campaigns are too heavy for -short (race CI); TestObserverMatchesRecords covers streaming vs buffered there")
	}
	app := detApp(t)
	o := campaign.DefaultBuildOptions()
	cache := campaign.NewCache() // shared: both runs reuse one build+profile
	ctx := context.Background()
	for _, tool := range campaign.Tools {
		buffered, err := campaign.New(app, tool,
			campaign.WithTrials(detTrials), campaign.WithSeed(detSeed),
			campaign.WithWorkers(1), campaign.WithBuildOptions(o),
			campaign.WithCache(cache), campaign.WithRecords(),
		).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			var stream []campaign.TrialResult
			res, err := campaign.New(app, tool,
				campaign.WithTrials(detTrials), campaign.WithSeed(detSeed),
				campaign.WithWorkers(workers), campaign.WithBuildOptions(o),
				campaign.WithCache(cache),
				campaign.WithObserver(func(i int, tr campaign.TrialResult) {
					stream = append(stream, tr)
				}),
			).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(stream) != len(buffered.Records) {
				t.Fatalf("%s workers=%d: stream length %d != records %d",
					tool.Name(), workers, len(stream), len(buffered.Records))
			}
			for i := range stream {
				if stream[i] != buffered.Records[i] {
					t.Fatalf("%s workers=%d: trial %d differs:\n%+v\nvs\n%+v",
						tool.Name(), workers, i, stream[i], buffered.Records[i])
				}
			}
			if res.Counts != buffered.Counts || res.Cycles != buffered.Cycles {
				t.Fatalf("%s workers=%d: aggregates differ", tool.Name(), workers)
			}
		}
	}
}

func TestCacheKeysDistinguishOptions(t *testing.T) {
	app := detApp(t)
	cache := campaign.NewCache()
	o := campaign.DefaultBuildOptions()
	if _, _, err := cache.BuildAndProfile(app, campaign.REFINE, o, detCosts()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.BuildAndProfile(app, campaign.REFINE, o, detCosts()); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != 1 {
		t.Fatalf("repeat key: cache entries = %d, want 1", got)
	}
	o2 := o
	o2.FI.Funcs = []string{"main"}
	if _, _, err := cache.BuildAndProfile(app, campaign.REFINE, o2, detCosts()); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != 2 {
		t.Fatalf("distinct FI config: cache entries = %d, want 2", got)
	}
	if _, _, err := cache.BuildAndProfile(app, campaign.PINFI, o, detCosts()); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != 3 {
		t.Fatalf("distinct tool: cache entries = %d, want 3", got)
	}
}

func TestCachedBinarySharedAcrossCampaigns(t *testing.T) {
	app := detApp(t)
	cache := campaign.NewCache()
	o := campaign.DefaultBuildOptions()
	b1, p1, err := cache.BuildAndProfile(app, campaign.PINFI, o, detCosts())
	if err != nil {
		t.Fatal(err)
	}
	b2, p2, err := cache.BuildAndProfile(app, campaign.PINFI, o, detCosts())
	if err != nil {
		t.Fatal(err)
	}
	// A Binary is the asking tool's handle; the build behind it and the
	// profile are the key's one copy.
	if b1.Img != b2.Img || b1.FirePoints() != b2.FirePoints() || p1 != p2 {
		t.Errorf("cache returned distinct objects for the same key")
	}
}
