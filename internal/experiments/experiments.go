// Package experiments regenerates the paper's evaluation artifacts: the
// outcome-frequency table (Table 6 / Figure 4), the chi-squared comparison
// (Table 5, with Table 4 as the worked example), and the campaign-time
// comparison (Figure 5). The cmd/fi-* tools and the benchmark harness both
// drive this package.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Suite holds campaign results for a set of applications and tools.
// Results is keyed by application name, then by stable tool name (not the
// Tool interface value: injector identity in a suite is the registry name,
// and name keys keep the maps safe for injector implementations whose
// dynamic types are not comparable).
type Suite struct {
	Trials  int
	Results map[string]map[string]*campaign.Result
	Order   []string        // application display order
	Tools   []campaign.Tool // tool display order
}

// Config controls a suite run.
type Config struct {
	Apps []campaign.App // nil ⇒ all 14
	// Tools selects the injectors to campaign with (nil ⇒ the paper's
	// LLFI/REFINE/PINFI). Resolve registry extensions with
	// campaign.ToolByName — any registered injector works here.
	Tools  []campaign.Tool
	Trials int // 0 ⇒ paper's 1068
	Seed   uint64
	// Workers sizes the executor a suite without Sched runs on (0 ⇒
	// GOMAXPROCS; 1 = serial); with Pool it caps each worker process's trial
	// parallelism instead.
	Workers int
	Build   campaign.BuildOptions
	// Cache selects the build/profile cache for the suite's campaigns
	// (nil ⇒ the process-wide default). Suites regenerating several tables
	// from the same configuration reuse each binary and golden run instead
	// of recompiling per campaign. A disk-backed cache (campaign.
	// NewDiskCache) additionally persists artifacts across processes.
	Cache *campaign.Cache
	// Sched supplies the work-stealing executor the suite runs on (nil ⇒ a
	// suite-private one of Workers workers). Every (app, tool) campaign is
	// submitted up front, so builds and profiles of later campaigns overlap
	// the trial tails of earlier ones and cores stay saturated end to end.
	// Results are bit-identical for any executor size — campaigns are seeded
	// per trial, and each campaign's Merger delivers in trial order
	// regardless of where iterations ran.
	Sched *sched.Executor
	// Pool runs every campaign of the suite as a tenant of this live shard
	// worker pool (see internal/shard) instead of in-process; the caller
	// opens and closes it, and its cache counters stay readable afterwards.
	// Workers share the suite cache's disk directory when it has one, so
	// only the first process per app×tool builds. Results stay bit-identical
	// to the in-process path — the pool merges worker streams through the
	// same order-deterministic Merger. Sched is unused on a pool.
	Pool *shard.Pool
	// Daemon submits every campaign of the suite to this running fi-serve
	// daemon instead of executing it here (fi-campaign -submit): identical
	// submissions dedup server-side, and the results carry what the tables
	// read — Counts, Cycles, Trials. Cache, Journal, Precision, Pool and
	// Sched do not travel in a campaign.Spec and are unused.
	Daemon *serve.Client
	// Precision, when > 0, enables adaptive trial allocation
	// (campaign.WithPrecision at the paper's 95% confidence): each campaign
	// stops at the first deterministic batch boundary where every outcome
	// class's Wilson-CI half-width is at or below this margin, instead of
	// always running the full Trials. The stop index is a pure function of
	// the in-order trial prefix, so precision-stopped suites stay
	// bit-identical across executor sizes and sharded, cached and resumed
	// runs. 0 ⇒ fixed Trials.
	Precision float64
	// Journal makes the suite crash-safe (campaign.WithJournal): every
	// completed trial is appended to the journal, and a restarted suite
	// over the same journal replays recorded trials and re-executes only
	// the missing indices — bit-identical to an uninterrupted run. nil ⇒
	// no journaling. A Daemon run appends nothing to it, so Flags.Open
	// refuses -journal beside -submit.
	Journal *campaign.Journal
	// Progress, if non-nil, receives one line per completed campaign.
	// Campaigns finish concurrently, so line order follows completion, not
	// the app×tool nesting; calls are serialized.
	Progress func(string)
}

// RunSuite executes trials×|apps|×|tools| fault-injection experiments.
func RunSuite(cfg Config) (*Suite, error) {
	return RunSuiteContext(context.Background(), cfg)
}

// RunSuiteContext is RunSuite with cancellation: when ctx is cancelled, the
// suite stops promptly (every in-flight campaign is abandoned at its partial
// prefix) and the error wraps ctx.Err().
func RunSuiteContext(ctx context.Context, cfg Config) (*Suite, error) {
	apps := cfg.Apps
	if apps == nil {
		apps = workloads.Registry()
	}
	tools := cfg.Tools
	if tools == nil {
		tools = campaign.Tools
	}
	trials := cfg.Trials
	if trials == 0 {
		trials = campaign.PaperTrials
	}
	// Default only the unset fields of the build configuration: an explicit
	// Opt (including opt.O0 — distinguishable from "unset" since the zero
	// Level is opt.ODefault) or Funcs filter must survive, so never reset
	// the whole struct.
	if cfg.Build.FI.Classes == 0 {
		cfg.Build.FI.Classes = fault.ClassAll
	}
	cache := cfg.Cache
	if cache == nil {
		cache = campaign.DefaultCache()
	}
	s := &Suite{Trials: trials, Results: map[string]map[string]*campaign.Result{},
		Tools: append([]campaign.Tool(nil), tools...)}
	for _, app := range apps {
		s.Order = append(s.Order, app.Name)
		s.Results[app.Name] = map[string]*campaign.Result{}
	}
	// Where a campaign runs is one of three same-shaped calls: on a fi-serve
	// daemon, as a tenant of the shard pool — co-scheduled by its round-robin
	// fair sharing, workers keeping their in-memory caches across campaigns
	// and sharing a disk-backed suite cache by directory (see internal/shard)
	// — or on the suite's executor. Everything else about the fan-out is
	// shared.
	var ex *sched.Executor
	run := func(ctx context.Context, c *campaign.Campaign) (*campaign.Result, error) { return c.Run(ctx) }
	switch {
	case cfg.Daemon != nil:
		run = cfg.Daemon.RunCampaign
	case cfg.Pool != nil:
		run = cfg.Pool.Run
	case cfg.Sched != nil:
		ex = cfg.Sched
	default:
		ex = sched.New(cfg.Workers)
		defer ex.Close()
	}

	// Submit every campaign up front. Each campaign goroutine is a thin
	// client that enqueues its build+profile unit and trial batch (or its
	// shard ranges) and waits; the executor's or pool's workers do all the
	// actual compute, so |apps|×|tools| concurrent campaigns cost |workers|
	// cores, and builds of later campaigns overlap the trial tails of
	// earlier ones.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for _, app := range apps {
		for _, tool := range tools {
			wg.Add(1)
			go func(app campaign.App, tool campaign.Tool) {
				defer wg.Done()
				res, err := run(runCtx, campaign.New(app, tool,
					campaign.WithTrials(trials),
					campaign.WithSeed(cfg.Seed),
					campaign.WithWorkers(cfg.Workers),
					campaign.WithExecutor(ex),
					campaign.WithBuildOptions(cfg.Build),
					campaign.WithCache(cache),
					campaign.WithJournal(cfg.Journal),
					campaign.WithPrecision(cfg.Precision),
				))
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("experiments: %s/%s: %w", app.Name, tool.Name(), err)
						cancel() // abandon the rest of the suite
					}
					return
				}
				s.Results[app.Name][tool.Name()] = res
				if cfg.Progress != nil {
					c := res.Counts
					cfg.Progress(fmt.Sprintf("%-8s %-6s crash=%4d soc=%4d benign=%4d (cycles %.2e)",
						app.Name, tool.Name(), c.Crash, c.SOC, c.Benign, float64(res.Cycles)))
				}
			}(app, tool)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return s, nil
}

// has reports whether the suite campaigned with the tool. Tools compare by
// stable Name(), not interface identity: a name-equal injector resolved
// through a different path still matches, and injector implementations with
// uncomparable dynamic types cannot panic here.
func (s *Suite) has(tool campaign.Tool) bool {
	for _, t := range s.Tools {
		if t.Name() == tool.Name() {
			return true
		}
	}
	return false
}

// result looks up a campaign result by app and tool name (see has).
func (s *Suite) result(app string, tool campaign.Tool) *campaign.Result {
	return s.Results[app][tool.Name()]
}

// comparisonTools returns the suite's tools other than PINFI, for the
// chi-squared comparisons against the PINFI baseline.
func (s *Suite) comparisonTools() []campaign.Tool {
	var out []campaign.Tool
	for _, t := range s.Tools {
		if t.Name() != campaign.PINFI.Name() {
			out = append(out, t)
		}
	}
	return out
}

// Table6 renders the complete outcome-frequency table (paper Table 6).
func (s *Suite) Table6() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: outcome frequencies (n=%d per cell)\n", s.Trials)
	fmt.Fprintf(&b, "%-10s %-8s %8s %8s %8s\n", "App", "Tool", "Crash", "SOC", "Benign")
	for _, app := range s.Order {
		for _, tool := range s.Tools {
			c := s.result(app, tool).Counts
			fmt.Fprintf(&b, "%-10s %-8s %8d %8d %8d\n", app, tool.Name(), c.Crash, c.SOC, c.Benign)
		}
	}
	return b.String()
}

// Figure4 renders the sampled outcome probabilities with 95% Wilson
// confidence intervals (the error bars of the paper's Figure 4).
func (s *Suite) Figure4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: outcome probabilities ±95%% CI (n=%d)\n", s.Trials)
	fmt.Fprintf(&b, "%-10s %-8s %22s %22s %22s\n", "App", "Tool", "Crash%", "SOC%", "Benign%")
	for _, app := range s.Order {
		for _, tool := range s.Tools {
			c := s.result(app, tool).Counts
			n := c.Total()
			cell := func(k int) string {
				lo, hi := stats.WilsonCI(k, n, stats.Z95)
				return fmt.Sprintf("%5.1f [%5.1f,%5.1f]", 100*float64(k)/float64(n), 100*lo, 100*hi)
			}
			fmt.Fprintf(&b, "%-10s %-8s %22s %22s %22s\n", app, tool.Name(), cell(c.Crash), cell(c.SOC), cell(c.Benign))
		}
	}
	return b.String()
}

// Comparison is one row of the Table 5 data.
type Comparison struct {
	App  string
	Test stats.TestResult
}

// ChiSquared computes the Table 5 comparisons of cmp against PINFI. Both
// tools must be part of the suite.
func (s *Suite) ChiSquared(cmp campaign.Tool) ([]Comparison, error) {
	if !s.has(campaign.PINFI) || !s.has(cmp) {
		return nil, fmt.Errorf("experiments: chi-squared needs both PINFI and %s in the suite", cmp.Name())
	}
	var out []Comparison
	for _, app := range s.Order {
		base := s.result(app, campaign.PINFI).Counts
		c := s.result(app, cmp).Counts
		tr, err := stats.CompareCounts(app, "PINFI", cmp.Name(),
			[3]int64{int64(base.Crash), int64(base.SOC), int64(base.Benign)},
			[3]int64{int64(c.Crash), int64(c.SOC), int64(c.Benign)})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", app, err)
		}
		out = append(out, Comparison{App: app, Test: tr})
	}
	return out, nil
}

// Table5 renders every non-baseline tool's comparison against PINFI.
func (s *Suite) Table5() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: chi-squared tests vs PINFI (alpha=%.2f)\n", stats.Alpha)
	for _, cmp := range s.comparisonTools() {
		rows, err := s.ChiSquared(cmp)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n%s vs PINFI:\n%-10s %10s %4s %10s %6s\n", cmp.Name(), "App", "chi2", "df", "p-value", "diff?")
		for _, r := range rows {
			sig := "no"
			if r.Test.Significant {
				sig = "yes"
			}
			fmt.Fprintf(&b, "%-10s %10.3f %4d %10.2e %6s\n", r.App, r.Test.Stat, r.Test.DF, r.Test.P, sig)
		}
	}
	return b.String(), nil
}

// Table4 renders the worked contingency-table example (paper Table 4):
// LLFI vs PINFI on the first application of the suite. Without both tools
// it degrades to a skip notice.
func (s *Suite) Table4(app string) string {
	if !s.has(campaign.LLFI) || !s.has(campaign.PINFI) {
		return "Table 4: skipped (requires LLFI and PINFI in the suite)\n"
	}
	var b strings.Builder
	l := s.result(app, campaign.LLFI).Counts
	p := s.result(app, campaign.PINFI).Counts
	fmt.Fprintf(&b, "Table 4: contingency table, LLFI vs PINFI (%s)\n", app)
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s\n", "Tool", "Crash", "SOC", "Benign", "Total")
	fmt.Fprintf(&b, "%-8s %8d %8d %8d %8d\n", "LLFI", l.Crash, l.SOC, l.Benign, l.Total())
	fmt.Fprintf(&b, "%-8s %8d %8d %8d %8d\n", "PINFI", p.Crash, p.SOC, p.Benign, p.Total())
	fmt.Fprintf(&b, "%-8s %8d %8d %8d\n", "Total", l.Crash+p.Crash, l.SOC+p.SOC, l.Benign+p.Benign)
	return b.String()
}

// Figure5 renders campaign execution time normalized to PINFI, per app and
// in total (the paper's Figure 5a–o), one column per non-baseline tool.
// Without PINFI (the normalization baseline) in the suite it degrades to a
// skip notice instead of a table.
func (s *Suite) Figure5() string {
	if !s.has(campaign.PINFI) {
		return "Figure 5: skipped (requires the PINFI baseline in the suite)\n"
	}
	cmps := s.comparisonTools()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: campaign time normalized to PINFI\n")
	fmt.Fprintf(&b, "%-10s", "App")
	for _, t := range cmps {
		fmt.Fprintf(&b, " %8s", t.Name())
	}
	fmt.Fprintf(&b, "\n")
	tot := make([]int64, len(cmps))
	var totP int64
	for _, app := range s.Order {
		p := s.result(app, campaign.PINFI).Cycles
		totP += p
		fmt.Fprintf(&b, "%-10s", app)
		for i, t := range cmps {
			c := s.result(app, t).Cycles
			tot[i] += c
			fmt.Fprintf(&b, " %8.1f", float64(c)/float64(p))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "%-10s", "Total")
	for i := range cmps {
		fmt.Fprintf(&b, " %8.1f", float64(tot[i])/float64(totP))
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

// NormalizedTime returns the tool's total campaign cycles over the suite,
// normalized to the PINFI baseline. It returns NaN when the suite lacks
// either tool.
func (s *Suite) NormalizedTime(tool campaign.Tool) float64 {
	if !s.has(campaign.PINFI) || !s.has(tool) {
		return math.NaN()
	}
	var tot, totP int64
	for _, app := range s.Order {
		tot += s.result(app, tool).Cycles
		totP += s.result(app, campaign.PINFI).Cycles
	}
	return float64(tot) / float64(totP)
}

// Speedups returns (LLFI/PINFI, REFINE/PINFI) normalized total campaign
// times for programmatic checks.
func (s *Suite) Speedups() (llfiNorm, refineNorm float64) {
	return s.NormalizedTime(campaign.LLFI), s.NormalizedTime(campaign.REFINE)
}

// SummaryCounts returns the suite's Table 5 verdict counts: how many apps
// show a significant difference per comparison tool, keyed by tool name.
func (s *Suite) SummaryCounts() (map[string]int, error) {
	sig := make(map[string]int)
	for _, cmp := range s.comparisonTools() {
		rows, err := s.ChiSquared(cmp)
		if err != nil {
			return nil, err
		}
		sig[cmp.Name()] = 0
		for _, r := range rows {
			if r.Test.Significant {
				sig[cmp.Name()]++
			}
		}
	}
	return sig, nil
}

// PaperTable6 returns the published Table 6 counts, app → tool → counts.
func PaperTable6() map[string]map[string]fault.Counts {
	t := map[string]map[string]fault.Counts{
		"AMG2013": {"LLFI": {Crash: 395, SOC: 168, Benign: 505}, "REFINE": {Crash: 254, SOC: 87, Benign: 727}, "PINFI": {Crash: 269, SOC: 70, Benign: 729}},
		"CoMD":    {"LLFI": {Crash: 372, SOC: 117, Benign: 579}, "REFINE": {Crash: 136, SOC: 55, Benign: 877}, "PINFI": {Crash: 175, SOC: 59, Benign: 834}},
		"HPCCG":   {"LLFI": {Crash: 320, SOC: 195, Benign: 553}, "REFINE": {Crash: 159, SOC: 68, Benign: 841}, "PINFI": {Crash: 162, SOC: 77, Benign: 829}},
		"XSBench": {"LLFI": {Crash: 55, SOC: 355, Benign: 658}, "REFINE": {Crash: 179, SOC: 194, Benign: 695}, "PINFI": {Crash: 188, SOC: 203, Benign: 677}},
		"miniFE":  {"LLFI": {Crash: 420, SOC: 327, Benign: 321}, "REFINE": {Crash: 186, SOC: 177, Benign: 705}, "PINFI": {Crash: 215, SOC: 162, Benign: 691}},
		"lulesh":  {"LLFI": {Crash: 21, SOC: 4, Benign: 1043}, "REFINE": {Crash: 76, SOC: 2, Benign: 990}, "PINFI": {Crash: 76, SOC: 4, Benign: 988}},
		"BT":      {"LLFI": {Crash: 224, SOC: 543, Benign: 301}, "REFINE": {Crash: 20, SOC: 347, Benign: 701}, "PINFI": {Crash: 15, SOC: 363, Benign: 690}},
		"CG":      {"LLFI": {Crash: 352, SOC: 0, Benign: 716}, "REFINE": {Crash: 201, SOC: 0, Benign: 867}, "PINFI": {Crash: 175, SOC: 0, Benign: 893}},
		"DC":      {"LLFI": {Crash: 495, SOC: 298, Benign: 275}, "REFINE": {Crash: 310, SOC: 154, Benign: 604}, "PINFI": {Crash: 347, SOC: 155, Benign: 566}},
		"EP":      {"LLFI": {Crash: 181, SOC: 470, Benign: 417}, "REFINE": {Crash: 44, SOC: 335, Benign: 689}, "PINFI": {Crash: 31, SOC: 341, Benign: 696}},
		"FT":      {"LLFI": {Crash: 386, SOC: 70, Benign: 612}, "REFINE": {Crash: 104, SOC: 51, Benign: 913}, "PINFI": {Crash: 96, SOC: 51, Benign: 921}},
		"LU":      {"LLFI": {Crash: 238, SOC: 528, Benign: 302}, "REFINE": {Crash: 18, SOC: 386, Benign: 664}, "PINFI": {Crash: 17, SOC: 436, Benign: 615}},
		"SP":      {"LLFI": {Crash: 268, SOC: 800, Benign: 0}, "REFINE": {Crash: 45, SOC: 612, Benign: 411}, "PINFI": {Crash: 42, SOC: 626, Benign: 400}},
		"UA":      {"LLFI": {Crash: 792, SOC: 136, Benign: 140}, "REFINE": {Crash: 98, SOC: 237, Benign: 733}, "PINFI": {Crash: 105, SOC: 242, Benign: 721}},
	}
	return t
}

// PaperSuite returns the published Table 6 counts as a Suite (n = 1068, apps
// sorted, tools LLFI/REFINE/PINFI), so the paper's own data renders through
// the renderers a measured suite uses.
func PaperSuite() *Suite {
	paper := PaperTable6()
	s := &Suite{Trials: campaign.PaperTrials, Results: map[string]map[string]*campaign.Result{},
		Tools: []campaign.Tool{campaign.LLFI, campaign.REFINE, campaign.PINFI}}
	for app := range paper { //fi:ordered — sorted below
		s.Order = append(s.Order, app)
	}
	sort.Strings(s.Order)
	for _, app := range s.Order {
		s.Results[app] = map[string]*campaign.Result{}
		for _, tool := range s.Tools {
			c := paper[app][tool.Name()]
			s.Results[app][tool.Name()] = &campaign.Result{App: app, Tool: tool, Counts: c, Trials: c.Total()}
		}
	}
	return s
}

// PaperFigure5 returns the published normalized campaign times.
func PaperFigure5() map[string][2]float64 {
	return map[string][2]float64{
		"AMG2013": {5.5, 0.7}, "CoMD": {3.1, 1.1}, "HPCCG": {4.9, 1.1},
		"lulesh": {3.9, 1.6}, "XSBench": {1.6, 0.8}, "miniFE": {9.4, 0.9},
		"BT": {4.8, 1.8}, "CG": {4.0, 0.8}, "DC": {2.2, 0.7}, "EP": {0.8, 0.9},
		"FT": {3.0, 1.0}, "LU": {3.8, 1.6}, "SP": {4.8, 1.2}, "UA": {4.4, 1.2},
		"Total": {3.9, 1.2},
	}
}
