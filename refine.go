// Package refine is the public API of the REFINE reproduction: realistic
// fault injection via compiler-based instrumentation (Georgakoudis, Laguna,
// Nikolopoulos, Schulz — SC'17), rebuilt as a self-contained Go system.
//
// The package re-exports the high-level workflow:
//
//	app, _  := refine.AppByName("HPCCG")
//	bin, _  := refine.Build(app, refine.REFINE, refine.DefaultOptions())
//	prof, _ := refine.ProfileRun(bin)
//	trial   := refine.Trial(bin, prof, seed)
//	res, _  := refine.NewCampaign(app, refine.REFINE,
//	        refine.WithTrials(1068), refine.WithSeed(seed)).Run(ctx)
//
// Fault-injection tools are pluggable Injector values resolved through a
// registry (ToolByName, Registered); the paper's three tools plus the
// REFINE2 double-bit-flip variant are pre-registered. Campaigns stream
// results through WithObserver and cancel cleanly through the context. Where a campaign runs is the caller's choice
// of call, not an option: Run(ctx) executes in this process, and
// ShardPool.Run(ctx, campaign) executes the same campaign on worker
// processes.
//
// Substrates live in internal packages: the SSA IR and optimizer
// (internal/ir, internal/opt), the VX64 backend (internal/codegen,
// internal/mir, internal/vx), the assembler and virtual machine
// (internal/asm, internal/vm), the REFINE pass and runtime (internal/core),
// the LLFI and PINFI comparators (internal/llfi, internal/pinfi), the
// multi-bit variant (internal/multibit), the fault model (internal/fault),
// campaign orchestration (internal/campaign), statistics (internal/stats),
// and the 14 benchmark kernels (internal/workloads).
package refine

import (
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/multibit"
	"repro/internal/opcodefi"
	"repro/internal/pinfi"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Tool is a pluggable fault-injection tool (the campaign.Injector
// interface). The built-in tools below are registered singletons; new tools
// register through campaign.Register and resolve by name with ToolByName.
type Tool = campaign.Tool

// Injector is the pluggable tool interface; implement it and pass the value
// to campaign.Register to add a fault model without touching the
// orchestrator (internal/multibit is the worked example).
type Injector = campaign.Injector

// Built-in tools, in the paper's presentation order, plus the multi-bit
// extension.
var (
	LLFI   = campaign.LLFI
	REFINE = campaign.REFINE
	PINFI  = campaign.PINFI
	// REFINE2 is the double bit-flip REFINE variant: two single-bit faults
	// at consecutive dynamic target instructions.
	REFINE2 = multibit.Injector
	// OPCODE is the opcode-corruption injector (§4.5 "future work"
	// semantics): a persistent bit flip in the target instruction's opcode
	// byte, invalid encodings allowed. Trials mutate private image clones,
	// so OPCODE campaigns share cached binaries like every other tool.
	OPCODE = opcodefi.Injector
	// OPCODEVALID is OPCODE restricted to valid opcodes — the published
	// REFINE's compiler-emission restriction.
	OPCODEVALID = opcodefi.ValidInjector
)

// Tools lists the paper's three tools.
var Tools = campaign.Tools

// Registered returns every registered tool (built-ins and extensions) in
// registration order.
func Registered() []Tool { return campaign.RegisteredTools() }

// ToolByName resolves a registered tool by its stable name (e.g. "REFINE",
// "PINFI", "REFINE2").
func ToolByName(name string) (Tool, error) { return campaign.ToolByName(name) }

// App is a benchmark program buildable to IR.
type App = campaign.App

// Binary is a compiled, instrumented (or plain, for PINFI) executable image.
type Binary = campaign.Binary

// Profile carries the profiling-step results: dynamic target population,
// golden output, timeout budget.
type Profile = campaign.Profile

// TrialResult is one fault-injection run's outcome.
type TrialResult = campaign.TrialResult

// Result aggregates a campaign.
type Result = campaign.Result

// Options configure the build pipeline (optimization level, -fi-funcs,
// -fi-instrs).
type Options = campaign.BuildOptions

// Outcome is the crash/SOC/benign classification.
type Outcome = fault.Outcome

// Outcome constants. HarnessFault is not a fault-model outcome: it marks a
// trial whose execution harness failed deterministically (e.g. a shard
// worker that crashed on every retry), so campaign tables can report the
// infrastructure failure instead of silently dropping or mislabeling the
// trial.
const (
	Benign       = fault.Benign
	Crash        = fault.Crash
	SOC          = fault.SOC
	HarnessFault = fault.HarnessFault
)

// Counts aggregates outcome frequencies.
type Counts = fault.Counts

// Apps returns the 14 benchmark applications of the paper's Table 3.
func Apps() []App { return workloads.Registry() }

// AppByName looks up a benchmark by name (e.g. "HPCCG", "lulesh", "BT").
func AppByName(name string) (App, error) { return workloads.ByName(name) }

// DefaultOptions is the paper's evaluation configuration:
// -O2, -fi=true -fi-funcs=* -fi-instrs=all.
func DefaultOptions() Options { return campaign.DefaultBuildOptions() }

// Build compiles an application under the given tool's pipeline.
func Build(app App, tool Tool, o Options) (*Binary, error) {
	return campaign.BuildBinary(app, tool, o)
}

// ProfileRun executes the profiling step (golden output + dynamic counts).
func ProfileRun(bin *Binary) (*Profile, error) {
	return bin.RunProfile(pinfi.DefaultCosts())
}

// Trial executes one fault-injection experiment with the given seed.
func Trial(bin *Binary, prof *Profile, seed uint64) TrialResult {
	return bin.RunTrial(prof, pinfi.DefaultCosts(), seed)
}

// CampaignSpec is a configured campaign; build one with NewCampaign and
// execute with Run(ctx).
type CampaignSpec = campaign.Campaign

// CampaignOption configures a campaign (functional options).
type CampaignOption = campaign.Option

// Functional options for NewCampaign (see the campaign package for full
// semantics).
var (
	// WithTrials sets the trial count (default: the paper's 1068).
	WithTrials = campaign.WithTrials
	// WithSeed sets the base RNG seed (default 1).
	WithSeed = campaign.WithSeed
	// WithWorkers sizes the campaign's private executor (default
	// GOMAXPROCS; 1 = serial).
	WithWorkers = campaign.WithWorkers
	// WithOptions sets the build pipeline configuration.
	WithOptions = campaign.WithBuildOptions
	// WithCache selects the build/profile cache; nil forces a fresh build.
	WithCache = campaign.WithCache
	// WithObserver streams trial results in trial order as the campaign
	// runs; a Result holds only aggregates.
	WithObserver = campaign.WithObserver
	// WithExecutor schedules the campaign on a shared work-stealing
	// executor (see NewExecutor) instead of a private one of WithWorkers
	// workers; concurrent campaigns interleave at trial granularity with
	// bit-identical results.
	WithExecutor = campaign.WithExecutor
	// WithTrialRange restricts the campaign to trial indexes [lo, hi)
	// while keeping absolute per-trial seeds — the sharding substrate,
	// usable directly for manual work splitting.
	WithTrialRange = campaign.WithTrialRange
	// WithJournal appends every completed trial to a crash-safe journal
	// (see OpenJournal); a restarted campaign with the same journal replays
	// recorded trials and re-executes only the missing indexes,
	// bit-identically.
	WithJournal = campaign.WithJournal
)

// ErrBuildUnclaimed is returned (wrapped) by campaigns whose build+profile
// unit was abandoned before any executor worker claimed it while the context
// reports no error; match with errors.Is.
var ErrBuildUnclaimed = campaign.ErrBuildUnclaimed

// Journal is a crash-safe, append-only record of completed trials: gob
// frames in rotated segments, fsynced, torn-tail tolerant. One journal
// serves many campaigns — entries are keyed by each campaign's
// configuration fingerprint — and a process restarted onto the same
// directory replays recorded trials instead of re-executing them.
type Journal = campaign.Journal

// JournalStats are a journal's replay/append counters.
type JournalStats = campaign.JournalStats

// OpenJournal opens (or creates) the trial journal rooted at dir, loading
// every complete entry from existing segments; pass it to campaigns with
// WithJournal.
func OpenJournal(dir string) (*Journal, error) { return campaign.OpenJournal(dir) }

// ShardPool is a set of live worker processes that campaigns fan out over:
// this binary re-exec'd, each driven with gob frames over a socketpair it
// inherits, sharing one content-addressed disk cache. pool.Run(ctx, campaign) is Campaign.Run on
// the workers — bit-identical results for any pool size, registry apps only
// (workers resolve the app by name) — and one pool can run many campaigns (a
// suite), concurrently, before Close. See internal/shard for the wire
// protocol and the determinism, cache-sharing and cancellation contracts.
type ShardPool = shard.Pool

// NewShardPool spawns n shard worker processes. The embedding binary must
// call MaybeShardWorker first thing in main (the fi-* drivers do).
func NewShardPool(n int) (*ShardPool, error) { return shard.NewPool(n) }

// MaybeShardWorker turns this process into a shard worker when it was
// re-exec'd by a ShardPool (no-op otherwise). Call it before flag parsing
// in any main — or in TestMain of any test binary — that creates pools.
func MaybeShardWorker() { shard.MaybeWorker() }

// Executor is the work-stealing trial executor: one pool that treats every
// build, profile and trial of every campaign submitted to it as a claimable
// unit of work, keeping cores saturated across a whole suite.
type Executor = sched.Executor

// NewExecutor creates an executor with the given worker count (<= 0 means
// GOMAXPROCS). Close it when done.
func NewExecutor(workers int) *Executor { return sched.New(workers) }

// Cache memoizes builds and golden profiles; see NewBuildCache and
// NewDiskCache.
type Cache = campaign.Cache

// CacheStats are a cache's hit/build counters.
type CacheStats = campaign.CacheStats

// NewBuildCache returns an empty in-memory build/profile cache (campaigns
// use the process-wide default unless WithCache overrides it).
func NewBuildCache() *Cache { return campaign.NewCache() }

// NewDiskCache returns a build/profile cache persisted under dir: entries
// are content-addressed by configuration and IR fingerprint, so a later
// process warm-starts past every build and golden profile. Stats() reports
// builds vs memory vs disk hits.
func NewDiskCache(dir string) (*Cache, error) { return campaign.NewDiskCache(dir) }

// NewCampaign specifies a campaign over (app, tool); run it with
// .Run(ctx). Builds and golden-run profiles are memoized process-wide by
// default, keyed by the app's name, memory size, tool and build options —
// repeated campaigns over the same configuration compile and profile once.
// Apps are identified by name: two Apps sharing a name but building
// different IR would collide in the cache; use distinct names, or
// WithCache(nil) to bypass caching.
func NewCampaign(app App, tool Tool, opts ...CampaignOption) *CampaignSpec {
	return campaign.New(app, tool, opts...)
}

// SampleSize computes the Leveugle et al. sample count; the paper's margin
// (3%) and confidence (95%) over a large population give 1068.
func SampleSize(population int64, marginOfError, z float64) int {
	return stats.SampleSize(population, marginOfError, z)
}

// PaperTrials is the per-configuration trial count of the paper (§5.3).
var PaperTrials = stats.SampleSize(1<<40, 0.03, stats.Z95)

// ChiSquaredCompare tests whether two tools' outcome counts differ
// significantly (α = 0.05), as in the paper's Table 5.
func ChiSquaredCompare(app, baseTool, cmpTool string, base, cmp Counts) (stats.TestResult, error) {
	return stats.CompareCounts(app, baseTool, cmpTool,
		[3]int64{int64(base.Crash), int64(base.SOC), int64(base.Benign)},
		[3]int64{int64(cmp.Crash), int64(cmp.SOC), int64(cmp.Benign)})
}

// WilsonCI returns the 95% confidence interval for k/n, used for the
// Figure 4 error bars.
func WilsonCI(k, n int) (lo, hi float64) {
	return stats.WilsonCI(k, n, stats.Z95)
}

// NewModule and Builder re-exports allow custom workloads against the
// public API (see examples/custom-workload).
func NewModule(name string) *ir.Module { return ir.NewModule(name) }

// NewBuilder returns an IR builder over a module.
func NewBuilder(m *ir.Module) *ir.Builder { return ir.NewBuilder(m) }
