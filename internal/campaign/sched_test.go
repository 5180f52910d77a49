package campaign_test

// Coverage for the trial executor and the build cache: a private executor
// never outlives its Run, an empty range still builds, memory entries are
// keyed by build configuration and disk entries by instrumentation level and
// IR. That every
// executor and cache state reproduces the reference run is
// internal/experiments' TestEquivalenceMatrix.

import (
	"context"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/ir"
	"repro/internal/pinfi"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// miniApp2 builds under miniApp's name but with different IR — the
// disk-cache fingerprint test's "source changed between binary versions"
// scenario.
func miniApp2() *ir.Module {
	m := ir.NewModule("mini")
	m.DeclareHost(ir.HostDecl{Name: "out_i64", Params: []ir.Type{ir.I64}, Ret: ir.I64})
	b := ir.NewBuilder(m)
	b.NewFunc("main", ir.I64)
	acc := b.NewVar(ir.I64, b.ConstI(0))
	b.Loop(b.ConstI(0), b.ConstI(64), b.ConstI(1), func(i *ir.Value) {
		acc.Set(b.Add(acc.Get(), b.Mul(i, i)))
	})
	b.Call("out_i64", acc.Get())
	b.Ret(b.ConstI(0))
	return m
}

// miniRun is a campaign of testApp run to completion with its observed stream.
type miniRun struct {
	*campaign.Result
	trials []campaign.TrialResult
}

// runMini runs a campaign of testApp to completion, collecting its stream.
func runMini(t *testing.T, tool campaign.Tool, n int, opts ...campaign.Option) miniRun {
	t.Helper()
	var trs []campaign.TrialResult
	res, err := campaign.New(testApp, tool, append([]campaign.Option{
		campaign.WithTrials(n), campaign.WithSeed(7),
		campaign.WithObserver(func(_ int, tr campaign.TrialResult) { trs = append(trs, tr) })}, opts...)...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return miniRun{res, trs}
}

// TestDiskCacheStoresOneEntryPerLevel: a build is addressed by what was built.
// Every registered tool run over one cache directory leaves three .fic
// entries per app — ir, backend, binary — and a second cache over the
// directory restores all seven tools from them without building, with the
// records of the cold run.
func TestDiskCacheStoresOneEntryPerLevel(t *testing.T) {
	dir := t.TempDir()
	sweep := func() (map[string]miniRun, campaign.CacheStats) {
		cache, err := campaign.NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]miniRun{}
		for _, tool := range everyTool {
			out[tool.Name()] = runMini(t, tool, 24, campaign.WithWorkers(1), campaign.WithCache(cache))
		}
		return out, cache.Stats()
	}
	cold, st := sweep()
	if st.Builds != 3 || st.DiskHits != 0 {
		t.Fatalf("cold sweep of %d tools: %+v, want 3 builds", len(everyTool), st)
	}
	if fics, _ := filepath.Glob(filepath.Join(dir, "*.fic")); len(fics) != 3 {
		t.Fatalf("cold sweep left %d .fic entries, want 3: %v", len(fics), fics)
	}
	warm, st := sweep()
	if st.Builds != 0 || st.DiskHits != 3 || st.DiskErrors != 0 || st.Quarantined != 0 {
		t.Fatalf("warm sweep: %+v, want 0 builds from 3 disk hits", st)
	}
	for _, tool := range everyTool {
		if c, w := cold[tool.Name()], warm[tool.Name()]; c.Counts != w.Counts || c.Cycles != w.Cycles || !slices.Equal(c.trials, w.trials) {
			t.Fatalf("%s: warm sweep differs from cold", tool.Name())
		}
	}
}

// TestDiskCacheKeysByIR: two apps sharing a name but building different IR
// must land on different disk entries (the content address includes the IR
// fingerprint), unlike the in-memory layer which documents the name
// collision.
func TestDiskCacheKeysByIR(t *testing.T) {
	dir := t.TempDir()
	c1, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.BuildAndProfile(testApp, campaign.REFINE, campaign.DefaultBuildOptions(), detCosts()); err != nil {
		t.Fatal(err)
	}

	// Same name, different IR: must miss the disk entry and build.
	other := campaign.App{Name: testApp.Name, Build: miniApp2}
	c2, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.BuildAndProfile(other, campaign.REFINE, campaign.DefaultBuildOptions(), detCosts()); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskHits != 0 || st.Builds != 1 {
		t.Fatalf("changed IR behind the same name must rebuild: %+v", st)
	}
}

// TestZeroTrialCampaign: an empty trial range still builds and profiles —
// the result is empty, carries the profile and no error — on a private
// executor (whose size must clamp to one worker for the build unit) and on a
// shared one.
func TestZeroTrialCampaign(t *testing.T) {
	ex := sched.New(2)
	defer ex.Close()
	for name, rng := range map[string]campaign.Option{
		"WithTrials(0)":        campaign.WithTrials(0),
		"WithTrialRange(5, 5)": campaign.WithTrialRange(5, 5),
	} {
		for where, exec := range map[string]*sched.Executor{"private": nil, "shared": ex} {
			res, err := campaign.New(testApp, campaign.REFINE, rng,
				campaign.WithExecutor(exec),
				campaign.WithObserver(func(int, campaign.TrialResult) {
					t.Errorf("%s/%s: observer invoked", name, where)
				}),
			).Run(context.Background())
			if err != nil {
				t.Fatalf("%s/%s: %v", name, where, err)
			}
			if res.Trials != 0 || res.Counts.Total() != 0 || res.Cycles != 0 {
				t.Fatalf("%s/%s: result not empty: %+v", name, where, res)
			}
			if res.Profile == nil {
				t.Fatalf("%s/%s: no profile", name, where)
			}
		}
	}
}

// unbuildable fails ir.Verify: main has no terminator.
func unbuildable() *ir.Module {
	m := ir.NewModule("unbuildable")
	ir.NewBuilder(m).NewFunc("main", ir.I64)
	return m
}

// TestPrivateExecutorNeverLeaks: Run closes its private executor on every
// return path — completed, cancelled mid-run, failed build, invalid range —
// so repeated campaigns leave the goroutine count where it started.
func TestPrivateExecutorNeverLeaks(t *testing.T) {
	cache := campaign.NewCache()
	runMini(t, campaign.REFINE, 120, campaign.WithWorkers(4), campaign.WithCache(cache)) // warm the cache and any lazily started runtime goroutines
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		runMini(t, campaign.REFINE, 120, campaign.WithWorkers(4), campaign.WithCache(cache))

		ctx, cancel := context.WithCancel(context.Background())
		var seen int
		if _, err := campaign.New(testApp, campaign.REFINE,
			campaign.WithTrials(100000), campaign.WithWorkers(4), campaign.WithCache(cache),
			campaign.WithObserver(func(int, campaign.TrialResult) {
				if seen++; seen == 25 {
					cancel()
				}
			}),
		).Run(ctx); err == nil {
			t.Fatal("cancelled campaign returned nil error")
		}
		cancel()

		if _, err := campaign.New(campaign.App{Name: "unbuildable", Build: unbuildable}, campaign.REFINE,
			campaign.WithTrials(8), campaign.WithWorkers(4), campaign.WithCache(nil),
		).Run(context.Background()); err == nil {
			t.Fatal("unbuildable app campaigned without error")
		}
	}
	// The executor's per-batch context watchers exit once their batch
	// settles, which may trail Run's return by a scheduling quantum.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func detCosts() pinfi.CostModel { return pinfi.DefaultCosts() }

func detApp(t *testing.T) campaign.App {
	t.Helper()
	app, err := workloads.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	return app
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
