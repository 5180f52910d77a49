package experiments_test

// Suite-level remote-execution coverage: -submit refuses what a daemon
// cannot honour, a pool is reusable across the suite's campaigns, and the
// "# speed:" line says where trials ran. That remote suites reproduce the
// reference is the suite rows of TestEquivalenceMatrix.

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workloads"
)

func TestMain(m *testing.M) {
	shard.MaybeWorker() // this test binary is re-exec'd as the shard worker
	os.Exit(m.Run())
}

// TestOpenRejectsWhatSubmitCannotHonour: a campaign.Spec carries no precision
// rule and the daemon's pool is its own, so Flags.Open refuses -precision,
// -shards and -shard-nodes beside -submit rather than dropping them.
func TestOpenRejectsWhatSubmitCannotHonour(t *testing.T) {
	for _, f := range []experiments.Flags{
		{Submit: "127.0.0.1:1", Precision: 0.05},
		{Submit: "127.0.0.1:1", Shards: 2},
		{Submit: "127.0.0.1:1", ShardNodes: "127.0.0.1:2"},
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

// TestReportSpeedLineIsThisProcessOnly: the phase counters behind "# speed:"
// are this process's, so the line gives rates, skipped= and rejoined= only
// when the suite ran here. A coordinator has run no trial — it used to print
// profile=0.0M trial=0.0M skipped=0% — and says where the trials ran instead,
// whatever this process has run before.
func TestReportSpeedLineIsThisProcessOnly(t *testing.T) {
	app, err := workloads.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Apps: []campaign.App{app}, Tools: []campaign.Tool{campaign.REFINE, campaign.PINFI},
		Trials: 24, Seed: 7, Cache: campaign.NewCache()}
	if _, err := experiments.RunSuite(cfg); err != nil { // leaves the process with trials of its own counted
		t.Fatal(err)
	}
	speedLine := func(cfg experiments.Config) string {
		var out bytes.Buffer
		experiments.Report(&out, cfg)
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "# speed:") {
				return line
			}
		}
		t.Fatalf("no # speed: line in:\n%s", out.String())
		return ""
	}
	if line := speedLine(cfg); !regexp.MustCompile(
		`^# speed: profile=\d+\.\dM instr/s trial=\d+\.\dM instr/s skipped=\d+% rejoined=\d+%$`).MatchString(line) ||
		strings.Contains(line, "trial=0.0M") {
		t.Errorf("in-process line: %q", line)
	}

	const elsewhere = "# speed: trials ran in other processes, which keep their own counters"
	cfg.Daemon = &serve.Client{Addr: "127.0.0.1:1"}
	if line := speedLine(cfg); line != elsewhere {
		t.Errorf("submitting line: %q", line)
	}

	if testing.Short() {
		return // the pool spawns worker processes
	}
	cfg.Daemon = nil
	pool, err := shard.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg.Pool = pool
	if line := speedLine(cfg); line != elsewhere {
		t.Errorf("sharded line: %q", line)
	}
}
