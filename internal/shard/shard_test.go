package shard_test

// The sharding suite: a worker killed mid-range must have its range
// reassigned without holes or duplicates, concurrent processes warming one
// cache directory must leave one entry, and a synthetic app is refused.
// That a pool at any width, of local workers or TCP nodes, reproduces the
// reference run is internal/experiments' TestEquivalenceMatrix.
//
// The worker side re-execs this very test binary: TestMain routes the
// FI_SHARD_WORKER marker into shard.MaybeWorker before any test runs, and a
// second marker turns the binary into a bare cache-warming child for the
// concurrent cross-process writer test.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/pinfi"
	"repro/internal/shard"
	"repro/internal/workloads"
)

func TestMain(m *testing.M) {
	shard.MaybeWorker()
	cacheWarmChild()
	os.Exit(m.Run())
}

// cacheWarmChild is the helper-process mode for the concurrent-writer test:
// warm one app×tool build+profile into the given cache dir and report the
// cache counters on stdout.
func cacheWarmChild() {
	dir := os.Getenv("FI_SHARD_CACHEWARM")
	if dir == "" {
		return
	}
	cache, err := campaign.NewDiskCache(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachewarm:", err)
		os.Exit(1)
	}
	app, err := workloads.ByName("CG")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachewarm:", err)
		os.Exit(1)
	}
	if _, _, err := cache.BuildAndProfile(app, campaign.REFINE, campaign.DefaultBuildOptions(), pinfi.DefaultCosts()); err != nil {
		fmt.Fprintln(os.Stderr, "cachewarm:", err)
		os.Exit(1)
	}
	st := cache.Stats()
	fmt.Printf("builds=%d disk-hits=%d disk-errors=%d\n", st.Builds, st.DiskHits, st.DiskErrors)
	os.Exit(0)
}

func mustApp(t *testing.T, name string) campaign.App {
	t.Helper()
	app, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// observed is a campaign's result and the trial stream its observer saw.
type observed struct {
	*campaign.Result
	trs []campaign.TrialResult
}

// collect is an observer that appends the stream to *trs, then calls then
// (when non-nil) with the trial's index.
func collect(trs *[]campaign.TrialResult, then func(i int)) campaign.Option {
	return campaign.WithObserver(func(i int, tr campaign.TrialResult) {
		*trs = append(*trs, tr)
		if then != nil {
			then(i)
		}
	})
}

// baseline runs the in-process reference campaign.
func baseline(t *testing.T, app campaign.App, tool campaign.Tool, trials int, seed uint64) observed {
	t.Helper()
	var o observed
	res, err := campaign.New(app, tool,
		campaign.WithTrials(trials), campaign.WithSeed(seed),
		campaign.WithCache(nil), collect(&o.trs, nil)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	o.Result = res
	return o
}

// TestShardWorkerKilledReassigns: a worker killed mid-campaign (the crash /
// external-SIGKILL case) must have its claimed range reassigned to a live
// worker; the campaign completes in full, without holes or duplicates, bit-
// identical to the unsharded run. The kill must reach the reader as EOF at
// once: a run that waits out the 30 s silence deadline means some process
// still holds the dead worker's socket end.
func TestShardWorkerKilledReassigns(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const trials = 240
	app := mustApp(t, "CG")
	ref := baseline(t, app, campaign.REFINE, trials, 13)

	p, err := shard.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pids := p.Pids()
	var once sync.Once
	var mu sync.Mutex
	var order []int
	var trs []campaign.TrialResult
	c := campaign.New(app, campaign.REFINE,
		campaign.WithTrials(trials), campaign.WithSeed(13),
		campaign.WithCache(nil),
		campaign.WithObserver(func(i int, tr campaign.TrialResult) {
			mu.Lock()
			order = append(order, i)
			trs = append(trs, tr)
			mu.Unlock()
			once.Do(func() {
				// First delivery: one worker is mid-range right now. Kill it.
				syscall.Kill(pids[0], syscall.SIGKILL)
			})
		}))
	start := time.Now()
	res, err := p.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	assertPromptDeath(t, time.Since(start))
	if res.Trials != trials {
		t.Fatalf("campaign completed %d/%d trials after worker kill", res.Trials, trials)
	}
	if res.Counts != ref.Counts || res.Cycles != ref.Cycles {
		t.Fatalf("post-kill result diverges: %+v / %d vs %+v / %d", res.Counts, res.Cycles, ref.Counts, ref.Cycles)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(trs) != len(ref.trs) {
		t.Fatalf("post-kill observer saw %d trials, unsharded run %d", len(trs), len(ref.trs))
	}
	for i := range ref.trs {
		if trs[i] != ref.trs[i] {
			t.Fatalf("post-kill trial %d diverges from unsharded run", i)
		}
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("observer stream out of order after reassignment: order[%d] = %d", i, got)
		}
	}
}

// assertPromptDeath fails a run that took long enough to have waited out the
// pool's 30 s silence deadline: a killed worker was noticed as silent, not
// as a closed session.
func assertPromptDeath(t *testing.T, took time.Duration) {
	t.Helper()
	if took > 10*time.Second {
		t.Fatalf("the run took %v: the kill did not reach the reader as EOF", took)
	}
}

// TestShardNonRegistryAppRejected: sharding needs workers to re-resolve the
// app by name; a synthetic app must fail fast with a clear error.
func TestShardNonRegistryAppRejected(t *testing.T) {
	c := campaign.New(campaign.App{Name: "no-such-app"}, campaign.REFINE, campaign.WithTrials(4))
	p, err := shard.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Run(context.Background(), c); err == nil || !strings.Contains(err.Error(), "registry") {
		t.Fatalf("expected registry-app error, got %v", err)
	}
}

// TestConcurrentCacheWarmProcesses is the cross-process disk-cache pin: two
// child processes warming the same cache dir for the same app×tool
// concurrently must both succeed, leave exactly one valid entry (atomic
// renames collapse onto one content address), and a third, warm child must
// report builds=0.
func TestConcurrentCacheWarmProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns helper processes")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	warm := func() (builds, diskHits int) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "FI_SHARD_CACHEWARM="+dir)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("cache-warm child: %v (%s)", err, out)
		}
		var diskErrors int
		if _, err := fmt.Sscanf(string(out), "builds=%d disk-hits=%d disk-errors=%d", &builds, &diskHits, &diskErrors); err != nil {
			t.Fatalf("cache-warm child output %q: %v", out, err)
		}
		return builds, diskHits
	}

	var wg sync.WaitGroup
	results := make([][2]int, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, h := warm()
			results[i] = [2]int{b, h}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("concurrent cache-warm children did not finish")
	}
	for i, r := range results {
		if r[0]+r[1] == 0 {
			t.Fatalf("child %d neither built nor hit the cache: %v", i, r)
		}
	}

	entries, err := filepath.Glob(filepath.Join(dir, "*.fic"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cache dir holds %d entries (%v), want exactly 1", len(entries), entries)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, ".fic-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files leaked: %v", leftovers)
	}

	builds, diskHits := warm()
	if builds != 0 || diskHits != 1 {
		t.Fatalf("warm child: builds=%d disk-hits=%d, want builds=0 disk-hits=1", builds, diskHits)
	}
}
