package experiments_test

// Suite-level remote-execution coverage: a suite fanned out across worker OS
// processes (Config.Pool) or submitted to a daemon (Config.Daemon) must
// reproduce the serial in-process suite bit for bit — outcome counts, cycles,
// and the rendered tables — and a pool must be reusable across the suite's
// campaigns.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
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

// remoteSuite is the 2 apps × 2 tools configuration the remote-execution tests
// compare against its own serial in-process run.
func remoteSuite(t *testing.T) (experiments.Config, *experiments.Suite) {
	t.Helper()
	var apps []campaign.App
	for _, name := range []string{"EP", "CG"} {
		a, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	cfg := experiments.Config{
		Apps:   apps,
		Tools:  []campaign.Tool{campaign.REFINE, campaign.PINFI},
		Trials: 24,
		Seed:   7,
		Cache:  campaign.NewCache(),
	}
	serial, err := experiments.RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = campaign.NewCache()
	return cfg, serial
}

// assertMatchesSerial: every cell's Counts, Cycles and Trials and the
// rendered Tables 5 and 6 equal the serial suite's.
func assertMatchesSerial(t *testing.T, mode string, serial, got *experiments.Suite) {
	t.Helper()
	for _, app := range serial.Order {
		for _, tool := range serial.Tools {
			s := serial.Results[app][tool.Name()]
			h := got.Results[app][tool.Name()]
			if h == nil {
				t.Fatalf("%s/%s: missing %s result", app, tool.Name(), mode)
			}
			if s.Counts != h.Counts || s.Cycles != h.Cycles || s.Trials != h.Trials {
				t.Fatalf("%s/%s: %s %+v/%d/%d != serial %+v/%d/%d",
					app, tool.Name(), mode, h.Counts, h.Cycles, h.Trials, s.Counts, s.Cycles, s.Trials)
			}
		}
	}
	if st, ht := serial.Table6(), got.Table6(); st != ht {
		t.Fatalf("%s Table 6 differs from serial:\n%s\nvs\n%s", mode, ht, st)
	}
	s5, err := serial.Table5()
	if err != nil {
		t.Fatal(err)
	}
	h5, err := got.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if s5 != h5 {
		t.Fatalf("%s Table 5 differs from serial:\n%s\nvs\n%s", mode, h5, s5)
	}
}

func TestSuiteShardedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg, serial := remoteSuite(t)
	pool, err := shard.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg.Pool = pool
	sharded, err := experiments.RunSuiteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSerial(t, "sharded", serial, sharded)
}

// TestSuiteSubmittedMatchesSerial: the same suite run through the daemon seam
// (Config.Daemon, what fi-campaign -submit sets) against an in-process
// fi-serve reproduces the serial suite, and what it submits is deployment-
// free: the client's disk cache and worker count stay out of the spec.
func TestSuiteSubmittedMatchesSerial(t *testing.T) {
	cfg, serial := remoteSuite(t)
	srv, err := serve.NewServer(serve.Config{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var specs []campaign.Spec
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req serve.Request
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("submission does not decode: %v", err)
		}
		mu.Lock()
		specs = append(specs, req.Spec)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	if cfg.Cache, err = campaign.NewDiskCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	cfg.Daemon = &serve.Client{Addr: strings.TrimPrefix(ts.URL, "http://")}
	served, err := experiments.RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesSerial(t, "submitted", serial, served)
	if len(specs) != 4 {
		t.Fatalf("%d submissions for 2 apps x 2 tools", len(specs))
	}
	for _, spec := range specs {
		if spec.CacheDir != "" || spec.Workers != 0 {
			t.Errorf("%s/%s submitted with deployment detail: CacheDir=%q Workers=%d",
				spec.App, spec.Tool, spec.CacheDir, spec.Workers)
		}
	}
	if st := cfg.Cache.Stats(); st.Builds != 0 {
		t.Errorf("the submitting client built %d binaries itself", st.Builds)
	}
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
	cfg, _ := remoteSuite(t) // leaves the process with trials of its own counted
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
