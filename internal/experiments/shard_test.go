package experiments_test

// Suite-level remote-execution coverage: -submit refuses what a daemon
// cannot honour, a pool is reusable across the suite's campaigns, and a
// pooled suite's report counts its workers' work. That remote suites
// reproduce the reference is the suite rows of TestEquivalenceMatrix.

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/shard"
	"repro/internal/workloads"
)

func TestMain(m *testing.M) {
	shard.MaybeWorker() // this test binary is re-exec'd as the shard worker
	os.Exit(m.Run())
}

// TestOpenRejectsWhatSubmitCannotHonour: a campaign.Spec carries no precision
// rule or journal and the daemon's pool is its own, so Flags.Open refuses
// -precision, -shards, -shard-nodes and -journal beside -submit rather than
// dropping them.
func TestOpenRejectsWhatSubmitCannotHonour(t *testing.T) {
	for _, f := range []experiments.Flags{
		{Submit: "127.0.0.1:1", Precision: 0.05},
		{Submit: "127.0.0.1:1", Shards: 2},
		{Submit: "127.0.0.1:1", ShardNodes: "127.0.0.1:2"},
		{Submit: "127.0.0.1:1", Journal: t.TempDir()},
	} {
		if _, _, err := f.Open(); err == nil || !strings.Contains(err.Error(), "-submit") {
			t.Errorf("Open(%+v) = %v, want a -submit conflict", f, err)
		}
	}
	f := experiments.Flags{Submit: "127.0.0.1:1", Trials: 8, CacheDir: t.TempDir()}
	cfg, closeRun, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer closeRun()
	if cfg.Daemon == nil || cfg.Daemon.Addr != f.Submit || cfg.Pool != nil {
		t.Fatalf("Open(-submit) resolved Daemon=%+v Pool=%v", cfg.Daemon, cfg.Pool)
	}
}

// TestSuitePoolReuse: one live pool serves every campaign of a suite and
// stays usable for the caller's stats afterwards.
func TestSuitePoolReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	app, err := workloads.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := campaign.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := shard.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg := experiments.Config{
		Apps:   []campaign.App{app},
		Tools:  []campaign.Tool{campaign.REFINE, campaign.PINFI},
		Trials: 16,
		Seed:   3,
		Cache:  cache,
		Pool:   pool,
	}
	if _, err := experiments.RunSuite(cfg); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	st := pool.Stats()
	if st.Builds == 0 {
		t.Fatalf("cold sharded suite reported no worker builds: %+v", st)
	}
}

// TestPoolReportsTheWorkersCounters: the workers ship their caches'
// counters on every range ack, so a suite on a pool reports the work its
// workers did. The same suite in-process and on a 2-worker pool counts the
// same trials, rejoined trials and executed, skipped and pruned instructions
// per tool (exact counts; only the wall time differs), and the pooled
// "# speed:" line has a trial rate. Section reuse is in-process: the workers
// run campaigns rebuilt from a Spec, so the pooled "# compose:" line is all
// zeros and the shared cache dir holds no section entry.
func TestPoolReportsTheWorkersCounters(t *testing.T) {
	app, err := workloads.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Apps: []campaign.App{app}, Tools: []campaign.Tool{campaign.REFINE, campaign.PINFI},
		Trials: 24, Seed: 7, Cache: campaign.NewCache()}
	report := func(cfg experiments.Config) (ps campaign.PhaseStats, speed, compose string) {
		if _, err := experiments.RunSuite(cfg); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		ps = experiments.Report(&out, cfg)
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "# speed:") {
				speed = line
			}
			if strings.HasPrefix(line, "# compose:") {
				compose = line
			}
		}
		return ps, speed, compose
	}
	speedRE := regexp.MustCompile(`^# speed: profile=\d+\.\dM instr/s trial=\d+\.\dM instr/s skipped=\d+% rejoined=\d+%$`)
	inProcess, speed, _ := report(cfg)
	if !speedRE.MatchString(speed) || strings.Contains(speed, "trial=0.0M") {
		t.Errorf("in-process line: %q", speed)
	}

	if testing.Short() {
		return // the pool spawns worker processes
	}
	dir := t.TempDir()
	if cfg.Cache, err = campaign.NewDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	if cfg.Pool, err = shard.NewPool(2); err != nil {
		t.Fatal(err)
	}
	defer cfg.Pool.Close()
	pooled, pooledSpeed, compose := report(cfg)
	if !speedRE.MatchString(pooledSpeed) || strings.Contains(pooledSpeed, "trial=0.0M") ||
		strings.Contains(pooledSpeed, "profile=0.0M") {
		t.Errorf("pooled line: %q", pooledSpeed)
	}
	if skip := regexp.MustCompile(` skipped=.*`); skip.FindString(pooledSpeed) != skip.FindString(speed) {
		t.Errorf("pooled %q and in-process %q skipped/rejoined shares differ", pooledSpeed, speed)
	}
	if compose != "# compose: sections=0 reused=0 reinjected=0 trials-reused=0 trials-reinjected=0" {
		t.Errorf("pooled compose line: %q", compose)
	}
	if fis, _ := filepath.Glob(filepath.Join(dir, "*.fis")); len(fis) != 0 {
		t.Errorf("the workers wrote %d section entries", len(fis))
	}
	for _, tool := range cfg.Tools {
		got, want := pooled.TrialByTool[tool.Name()], inProcess.TrialByTool[tool.Name()]
		got.Nanos, want.Nanos = 0, 0
		if got != want || want.Trials != 24 {
			t.Errorf("%s: pooled counters %+v, in-process %+v", tool.Name(), got, want)
		}
	}
}
