package opcodefi_test

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/opcodefi"
	"repro/internal/pinfi"
	"repro/internal/workloads"
)

func app(t *testing.T) campaign.App {
	t.Helper()
	a, err := workloads.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestRegistered: both opcode injectors resolve through the public registry
// — the CLI -tools path.
func TestRegistered(t *testing.T) {
	for name, want := range map[string]campaign.Tool{
		opcodefi.Name:      opcodefi.Injector,
		opcodefi.ValidName: opcodefi.ValidInjector,
	} {
		got, err := campaign.ToolByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("ToolByName(%q) returned a different injector", name)
		}
	}
}

// TestSharedCachedBinaryConcurrencySafe is the reason the injector exists:
// opcode corruption used to be documented as unsafe on a shared cached
// Binary (trials mutate the image in place). With per-trial private image
// clones, concurrent workers on one cached Binary must produce results
// bit-identical to a single worker — and to a fresh, uncached build.
func TestSharedCachedBinaryConcurrencySafe(t *testing.T) {
	if testing.Short() {
		t.Skip("CG campaigns are too heavy for -short (race CI)")
	}
	const trials = 60
	a := app(t)
	ctx := context.Background()
	for _, tool := range []campaign.Tool{opcodefi.Injector, opcodefi.ValidInjector} {
		cache := campaign.NewCache() // one shared binary for every run below
		type observed struct {
			*campaign.Result
			trs []campaign.TrialResult
		}
		run := func(workers int, c *campaign.Cache) observed {
			var trs []campaign.TrialResult
			res, err := campaign.New(a, tool,
				campaign.WithTrials(trials), campaign.WithSeed(11),
				campaign.WithWorkers(workers), campaign.WithCache(c),
				campaign.WithObserver(func(_ int, tr campaign.TrialResult) { trs = append(trs, tr) }),
			).Run(ctx)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tool.Name(), workers, err)
			}
			return observed{res, trs}
		}
		w1 := run(1, cache)
		w8 := run(8, cache)
		fresh := run(4, nil)
		for label, other := range map[string]observed{"workers=8": w8, "fresh": fresh} {
			if w1.Counts != other.Counts || w1.Cycles != other.Cycles {
				t.Fatalf("%s %s: aggregates differ: %+v/%d vs %+v/%d",
					tool.Name(), label, w1.Counts, w1.Cycles, other.Counts, other.Cycles)
			}
			if len(w1.trs) != trials || len(other.trs) != trials {
				t.Fatalf("%s %s: observers saw %d / %d trials, want %d",
					tool.Name(), label, len(w1.trs), len(other.trs), trials)
			}
			for i := range w1.trs {
				if w1.trs[i] != other.trs[i] {
					t.Fatalf("%s %s: trial %d differs:\n%+v\nvs\n%+v",
						tool.Name(), label, i, w1.trs[i], other.trs[i])
				}
			}
		}
		if got := w1.Counts.Total(); got != trials {
			t.Fatalf("%s: outcome total %d != trials %d", tool.Name(), got, trials)
		}
		// The fault must actually land: opcode corruption records the
		// old->new opcode transition for injected trials.
		landed := 0
		for _, r := range w1.trs {
			if r.Rec.Op != "" {
				landed++
			}
		}
		if landed == 0 {
			t.Fatalf("%s: no trial recorded an opcode flip", tool.Name())
		}
	}
}

// TestSharedImageUntouched: after a campaign, the cached Binary's image must
// hold its original opcodes — trials only ever mutated private clones.
func TestSharedImageUntouched(t *testing.T) {
	if testing.Short() {
		t.Skip("CG build too heavy for -short (race CI)")
	}
	a := app(t)
	cache := campaign.NewCache()
	bin, _, err := cache.BuildAndProfile(a, opcodefi.Injector, campaign.DefaultBuildOptions(), pinfi.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	before := make([]byte, len(bin.Img.Instrs))
	for i := range bin.Img.Instrs {
		before[i] = byte(bin.Img.Instrs[i].Op)
	}
	if _, err := campaign.New(a, opcodefi.Injector,
		campaign.WithTrials(40), campaign.WithSeed(3), campaign.WithWorkers(8),
		campaign.WithCache(cache),
	).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range bin.Img.Instrs {
		if byte(bin.Img.Instrs[i].Op) != before[i] {
			t.Fatalf("shared image opcode at pc %d mutated", i)
		}
	}
}
