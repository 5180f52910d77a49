package experiments

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"

	"repro/internal/campaign"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workloads"
)

// Flags is fi-campaign's suite-execution flag block: Register binds the
// flags, Open resolves them into a Config-ready cache, journal and worker
// pool (or the fi-serve daemon Submit names), and Report renders the "# …:"
// lines that describe the run.
type Flags struct {
	Trials     int
	Seed       uint64
	Workers    int
	Apps       string
	Tools      string
	Shards     int
	ShardNodes string
	Submit     string
	CacheDir   string
	Journal    string
	Precision  float64
}

// Register binds the flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Trials, "trials", campaign.PaperTrials, "fault-injection samples per (app, tool)")
	fs.Uint64Var(&f.Seed, "seed", 1, "base RNG seed")
	fs.IntVar(&f.Workers, "workers", 0, "size of the work-stealing executor every campaign of the suite runs on (0 = GOMAXPROCS, 1 = serial); with -shards, each worker process's trial parallelism. Results are identical for any value")
	fs.StringVar(&f.Apps, "apps", "", "comma-separated app subset (default: all 14)")
	fs.StringVar(&f.Tools, "tools", "", "comma-separated tool subset from the injector registry\n(default: LLFI,REFINE,PINFI; registered: "+strings.Join(campaign.ToolNames(), ",")+")")
	fs.IntVar(&f.Shards, "shards", 0, "fan campaigns across N worker OS processes (this binary re-exec'd); results are bit-identical to in-process runs, and -cache-dir is shared so only the first worker per app x tool builds (0 = in-process)")
	fs.StringVar(&f.ShardNodes, "shard-nodes", "", "comma-separated worker-node addresses (-shard-listen instances) to dial instead of re-execing local workers; -shards sizes the session count (0 = one per node)")
	fs.StringVar(&f.Submit, "submit", "", "submit the suite to a running fi-serve daemon at this address (host:port) instead of executing locally; identical submissions dedup server-side")
	fs.StringVar(&f.CacheDir, "cache-dir", "", "persist built binaries + profiles under this directory (warm starts skip all builds)")
	fs.StringVar(&f.Journal, "journal", "", "append every completed trial to a crash-safe journal under this directory; a restarted run replays it and re-executes only missing trials")
	fs.Float64Var(&f.Precision, "precision", 0, "adaptive trial allocation: stop each campaign once every outcome class's 95% Wilson-CI half-width is at or below this margin (0 = fixed -trials); the stop index is deterministic across execution modes")
}

// Open resolves the flags into a suite Config: the app and tool subsets, the
// cache (CacheDir == "" selects the process-wide in-memory cache; otherwise
// the disk-persistent cache rooted there), the journal, and where campaigns
// run — the shard worker pool, or the fi-serve daemon Submit names. The
// returned close function releases the journal and the pool; call it after
// Report.
func (f *Flags) Open() (Config, func(), error) {
	cfg := Config{
		Trials:    f.Trials,
		Seed:      f.Seed,
		Workers:   f.Workers,
		Build:     campaign.DefaultBuildOptions(),
		Precision: f.Precision,
		Cache:     campaign.DefaultCache(),
	}
	if f.Submit != "" {
		if f.Precision > 0 || f.Shards > 0 || f.ShardNodes != "" || f.Journal != "" {
			// A submitted campaign.Spec carries no precision rule or journal
			// and the daemon's pool is its own: refuse what would be
			// silently dropped.
			return cfg, nil, errors.New("-submit runs on the daemon's own pool at the full trial count; drop -precision/-shards/-shard-nodes/-journal")
		}
		cfg.Daemon = &serve.Client{Addr: f.Submit}
	}
	for _, name := range splitCSV(f.Apps) {
		app, err := workloads.ByName(name)
		if err != nil {
			return cfg, nil, err
		}
		cfg.Apps = append(cfg.Apps, app)
	}
	for _, name := range splitCSV(f.Tools) {
		tool, err := campaign.ToolByName(name)
		if err != nil {
			return cfg, nil, err
		}
		cfg.Tools = append(cfg.Tools, tool)
	}
	var err error
	if f.CacheDir != "" {
		if cfg.Cache, err = campaign.NewDiskCache(f.CacheDir); err != nil {
			return cfg, nil, err
		}
	}
	if f.Journal != "" {
		if cfg.Journal, err = campaign.OpenJournal(f.Journal); err != nil {
			return cfg, nil, err
		}
	}
	if cfg.Pool, err = shard.OpenPool(f.Shards, f.ShardNodes); err != nil {
		if cfg.Journal != nil {
			cfg.Journal.Close()
		}
		return cfg, nil, err
	}
	return cfg, func() {
		if cfg.Pool != nil {
			cfg.Pool.Close()
		}
		if cfg.Journal != nil {
			cfg.Journal.Close()
		}
	}, nil
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	out := strings.Split(s, ",")
	for i := range out {
		out[i] = strings.TrimSpace(out[i])
	}
	return out
}

// Report writes fi-campaign's "# …:" run report for a finished suite whose
// tool list is tools. The CI jobs grep these lines: "# cache:" for cold
// builds and warm disk hits, "# compose:" for the sections a warm run after a
// single-function edit re-injects, "# journal:" replayed= for resumed runs,
// "# shard-cache:" for the workers' cross-process totals, "# host:" for the
// trials a pool's workers ran. A sharded run's pool is drained first — each
// worker piggybacks its cumulative counters on every range ack and on exit,
// so only after Pool.Close are they the suite-wide total — and the "# speed:"
// and "# host:" lines then read the pool's sums instead of the suite cache's,
// which did no work. "# compose:" is always the suite cache's: section reuse
// is in-process, so on a pool it reads all zeros.
//
// The "# speed:" line is the measured wall-clock VM throughput split by
// campaign phase — profiling (each binary's golden passes: the profile run,
// and the replay its anchors are captured on) versus trials, over the
// instructions each executed — then skipped=, the share of the trials'
// instructions that starting from an anchor spared them, and rejoined=, the
// share of the trials finished at an anchor behind their fault (exact counts,
// equal in-process and on a pool; 0% means the anchors are not in use). The
// closing "# host:" lines give each tool's counted trials (exact, equal
// in-process and on a pool), their mean wall time on this machine and, when
// PINFI ran trials, that time over PINFI's: the host's own Figure 5 beside
// the cycle model's. A tool none of whose trials ran here (all replayed from
// a journal, say) prints trials=0 and no rate. The times vary run to run and
// nothing deterministic derives from them.
func Report(w io.Writer, cfg Config, tools []campaign.Tool) {
	ps := cfg.Cache.Phases()
	if cfg.Pool != nil {
		cfg.Pool.Close()
		ps = cfg.Pool.Phases()
	}
	fmt.Fprintf(w, "# cache: %s dir=%s\n", cacheCounters(cfg.Cache.Stats()), cfg.Cache.Dir())
	if cfg.Cache.Dir() != "" {
		cs := cfg.Cache.Compose()
		fmt.Fprintf(w, "# compose: sections=%d reused=%d reinjected=%d trials-reused=%d trials-reinjected=%d\n",
			cs.Sections, cs.Reused, cs.Reinjected, cs.TrialsReused, cs.TrialsReinjected)
	}
	if cfg.Journal != nil {
		js := cfg.Journal.Stats()
		fmt.Fprintf(w, "# journal: segments=%d loaded=%d replayed=%d appended=%d torn=%d errors=%d dir=%s\n",
			js.Segments, js.Loaded, js.Replayed, js.Appended, js.Torn, js.Errors, js.Dir)
	}
	if p := cfg.Pool; p != nil {
		fmt.Fprintf(w, "# shard: workers=%d deaths=%d\n# shard-cache: %s\n", p.Workers(), p.Deaths(), cacheCounters(p.Stats()))
	} else {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(w, "# exec: workers=%d\n", workers)
	}
	profile, trial := ps.InstrsPerSec()
	fmt.Fprintf(w, "# speed: profile=%.1fM instr/s trial=%.1fM instr/s skipped=%.0f%% rejoined=%.0f%%\n",
		profile/1e6, trial/1e6, 100*ps.SkippedShare(), 100*ps.RejoinedShare())
	perTrial := func(t campaign.TrialPhase) float64 {
		if t.Trials == 0 {
			return 0
		}
		return float64(t.Nanos) / float64(t.Trials)
	}
	base := perTrial(ps.TrialByTool[campaign.PINFI.Name()])
	for _, tool := range tools {
		t := ps.TrialByTool[tool.Name()]
		fmt.Fprintf(w, "# host: %s trials=%d", tool.Name(), t.Trials)
		if t.Trials > 0 {
			fmt.Fprintf(w, " us/trial=%.1f", perTrial(t)/1e3)
			if base > 0 {
				fmt.Fprintf(w, " vs-PINFI=%.1fx", perTrial(t)/base)
			}
		}
		fmt.Fprintln(w)
	}
}

// cacheCounters formats the counters of the "# cache:" and "# shard-cache:"
// lines.
func cacheCounters(s campaign.CacheStats) string {
	return fmt.Sprintf("builds=%d mem-hits=%d disk-hits=%d disk-errors=%d quarantined=%d",
		s.Builds, s.MemHits, s.DiskHits, s.DiskErrors, s.Quarantined)
}
