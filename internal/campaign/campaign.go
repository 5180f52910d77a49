// Package campaign orchestrates fault-injection experiments: it compiles an
// application once per instrumentation level (each has its own build
// pipeline, as in the paper's artifact description §A.3), runs the profiling
// step to obtain the dynamic target count, the golden output and the 10×
// timeout budget (Figure 3a), executes trials with uniformly drawn fault
// targets (Figure 3b), classifies outcomes, and aggregates the Table 6 counts.
// Campaigns run trials in parallel across worker goroutines, standing in for
// the paper's cluster of nodes (§A.4); every trial seeds its own RNG, so
// results are independent of scheduling.
//
// The runner owns a trial's start state. Until its fault lands a trial is
// the golden run, so a Binary memoizes a few snapshots of that run (anchors,
// see anchors.go) and every trial of every tool starts from the nearest one
// at or before its target — a plain Reset being the anchor at 0 — and is
// finished at the first one behind its fault it has rejoined the golden run
// at, with results bit-identical to executing the prefix and the tail.
//
// The orchestrator is generic over the Injector interface: tools plug into
// the shared build pipeline (IR hook for LLFI-style passes, machine hook for
// REFINE-style passes) and provide their own profiling and trial semantics.
// The paper's three tools are pre-registered; extensions register through
// Register without touching this package (see internal/multibit).
//
// Campaigns are driven through the spec + functional-options API:
//
//	res, err := campaign.New(app, campaign.REFINE,
//	        campaign.WithTrials(1068),
//	        campaign.WithSeed(1),
//	        campaign.WithObserver(func(i int, tr campaign.TrialResult) { ... }),
//	).Run(ctx)
package campaign

import (
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/codegen"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/mir"
	"repro/internal/opt"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/vx"
)

// App is a benchmark program: a name and an IR builder. Build must return a
// fresh module on every call (instrumentation mutates modules).
type App struct {
	Name  string
	Build func() *ir.Module
	// MemSize overrides the VM address-space size (0 = default).
	MemSize int64
}

// BuildOptions control the per-tool build pipeline.
type BuildOptions struct {
	Opt opt.Level    // optimization level (ablation hook; zero value = O2)
	FI  fault.Config // -fi-funcs / -fi-instrs
}

// DefaultBuildOptions is the paper's evaluation configuration.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{Opt: opt.O2, FI: fault.DefaultConfig()}
}

// Binary is a compiled application ready for fault-injection runs: a tool's
// handle on a build. The build — everything below Tool — belongs to what was
// built, the tool's instrumentation level: a Cache hands every tool of one
// Level a Binary with its own Tool and the same *build, so PINFI, OPCODE,
// OPCODE-VALID and PINFI2 run their trials on one image, one fire-point
// index and one set of anchors. Machines are the process's, not the build's
// (see AcquireMachine).
type Binary struct {
	App  App
	Tool Tool
	*build
	trials *trialCounters // Tool's row in its cache's Phases (nil outside a cache)
}

// build is the level's one copy of a compiled application and of what is
// memoized on it.
type build struct {
	Img   *vm.Image
	Sites int // static instrumentation sites (REFINE / LLFI)
	Cfg   fault.Config

	// imgPool recycles private image clones for injectors that mutate the
	// instruction stream in place (see AcquireImageClone). Living on the
	// build, the clones share its lifetime: discarding a cache releases
	// them with everything else.
	imgPool sync.Pool

	// targetOnce/targets lazily cache the per-PC injection-population
	// bitmap (see TargetMap); trials share one read-only copy instead of
	// re-deriving the population per run.
	targetOnce sync.Once
	targets    []bool

	// firePts is the fire-point index of a binary-level tool's binary (see
	// FirePoints): set by the profiling pass or preset from a disk-cache
	// entry, immutable afterwards.
	firePts *pinfi.FirePoints

	// golden is what the build memoizes of its golden run (see anchors.go):
	// the snapshots trials start from and are finished at, and where the run
	// ends. Captured by the first trial, immutable afterwards.
	anchorOnce sync.Once
	golden     goldenRun

	phases *phaseCounters // its cache's, counting its golden passes (nil outside a cache)
}

// TargetMap returns the binary's per-PC injection-population bitmap
// (pinfi.TargetMap over Img and Cfg) — the representation pinfi.Observe
// looks targets up in. It is computed once per build and immutable
// afterwards, so concurrent trial workers share it.
func (b *Binary) TargetMap() []bool {
	b.targetOnce.Do(func() { b.targets = pinfi.TargetMap(b.Img, b.Cfg) })
	return b.targets
}

// FirePoints returns the build's fire-point index — the absolute InstrCount
// of every dynamic target occurrence of the golden run, which every trial of
// every binary-level tool shares. BinaryLevel.Profile records it during
// RunProfile's golden pass — the one observed pass of a "binary" build — and
// the disk cache restores it with the entry, so it never costs a pass of its
// own; it is nil for a binary that has neither been profiled nor restored,
// and for tools that are not binary-level.
func (b *Binary) FirePoints() *pinfi.FirePoints { return b.firePts }

// BuildBinary compiles the application through the shared pipeline, letting
// the tool instrument at its hook points:
//
//	IR → O2 → [InstrumentIR] → legalize → backend → [InstrumentMachine] → assemble
//
// LLFI instruments at the IR hook, REFINE at the machine hook, PINFI at
// neither (plain binary).
func BuildBinary(app App, tool Tool, o BuildOptions) (bin *Binary, err error) {
	// The optimizer panics *ir.VerifyError when inter-pass verification
	// catches a broken pass; surface it to callers as an ordinary build
	// error so campaign drivers print one diagnostic line instead of a
	// stack trace.
	defer func() {
		if r := recover(); r != nil {
			if verr, ok := r.(*ir.VerifyError); ok {
				bin, err = nil, fmt.Errorf("campaign: %s: %w", app.Name, verr)
				return
			}
			panic(r)
		}
	}()
	m := app.Build()
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("campaign: %s: verify: %w", app.Name, err)
	}
	opt.OptimizeNoLower(m, o.Opt)
	sites := tool.InstrumentIR(m, o.FI)
	if ir.VerifyEachEnabled() {
		if verr := ir.Verify(m); verr != nil {
			return nil, fmt.Errorf("campaign: %s: %w", app.Name,
				&ir.VerifyError{Stage: "instrument-ir/" + tool.Name(), Err: verr})
		}
	}
	opt.Legalize(m)
	res, err := codegen.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", app.Name, err)
	}
	machineSites, err := tool.InstrumentMachine(res.Prog, o.FI)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", app.Name, err)
	}
	sites += machineSites
	if ir.VerifyEachEnabled() {
		if verr := mir.Verify(res.Prog, mir.PostRA); verr != nil {
			return nil, fmt.Errorf("campaign: %s: %w", app.Name,
				&ir.VerifyError{Stage: "instrument-machine/" + tool.Name(), Err: verr})
		}
	}
	img, err := asm.Assemble(res.Prog, asm.Options{MemSize: app.MemSize})
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: assemble: %w", app.Name, err)
	}
	// Record the function filter on the image for PINFI's population check.
	for i := range img.Funcs {
		img.Funcs[i].IsTarget = o.FI.FuncSelected(img.Funcs[i].Name)
	}
	return &Binary{App: app, Tool: tool, build: &build{Img: img, Sites: sites, Cfg: o.FI}}, nil
}

// bindOutput installs the standard output host functions (only those the
// image actually imports — a custom workload may use just one).
func bindOutput(m *vm.Machine) {
	if m.Img.Imports("out_i64") {
		m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
			mm.Output = append(mm.Output, mm.Regs[vx.R1])
			mm.Regs[vx.R0] = 0
		}})
	}
	if m.Img.Imports("out_f64") {
		m.BindHost(vm.HostFn{Name: "out_f64", Fn: func(mm *vm.Machine) {
			mm.Output = append(mm.Output, mm.Regs[vx.F0])
			mm.Regs[vx.R0] = 0
		}})
	}
}

// NewMachine prepares a machine for the binary with output bound, on an
// address space of its own.
func (b *Binary) NewMachine() *vm.Machine {
	newMachines.Add(1)
	m := vm.New(b.Img)
	bindOutput(m)
	return m
}

// Profile holds the results of the profiling step (paper Figure 3a).
type Profile struct {
	Targets int64    // dynamic target population size
	Golden  []uint64 // error-free output
	Budget  int64    // instruction budget = 10 × profiled dynamic length
	Cycles  int64    // modeled cycles of the profiling run
}

// TimeoutFactor is the paper's timeout threshold (§4.3.2): a run is declared
// crashed (timeout) after 10× the profiled execution length.
const TimeoutFactor = 10

// RunProfile executes the profiling step for the binary, on a machine
// borrowed from the process's pool: the tool counts its dynamic target
// population over a golden run, and the orchestrator validates the run and
// derives the timeout budget.
func (b *Binary) RunProfile(costs pinfi.CostModel) (*Profile, error) {
	m := b.AcquireMachine()
	defer b.ReleaseMachine(m)
	p := &Profile{}
	start := phaseStart()
	p.Targets, p.Golden = b.Tool.Profile(m, b, costs)
	b.phases.noteProfile(m.InstrCount, start)
	if m.Trap != vm.TrapNone || m.ExitCode != 0 {
		return nil, fmt.Errorf("campaign: %s/%s: golden run failed: trap=%v exit=%d %s",
			b.App.Name, b.Tool.Name(), m.Trap, m.ExitCode, m.TrapMsg)
	}
	if p.Targets == 0 {
		return nil, fmt.Errorf("campaign: %s/%s: empty target population", b.App.Name, b.Tool.Name())
	}
	p.Budget = m.InstrCount * TimeoutFactor
	p.Cycles = m.Cycles
	return p, nil
}

// TrialResult is the outcome of one fault-injection run.
type TrialResult struct {
	Outcome fault.Outcome
	Rec     fault.Record
	Cycles  int64
	Trap    vm.TrapKind
	// Instrs is the trial's dynamic instruction count from instruction 0 —
	// the architectural length of the run, including the golden prefix and
	// tail a trial started from or finished at an anchor did not itself
	// execute (Cache.Phases counts what was executed). Old journal entries
	// gob-decode it as zero; it does not feed the outcome tables.
	Instrs int64
}

// RunTrial executes one experiment with the given seed. The target dynamic
// instruction, operand and bit all derive from the seed's RNG, implementing
// the uniform fault model.
func (b *Binary) RunTrial(prof *Profile, costs pinfi.CostModel, seed uint64) TrialResult {
	m := b.NewMachine()
	return b.runTrialOn(m, prof, costs, seed)
}

// runTrialOn runs one trial on a machine of the binary in any state (fresh,
// or as its last trial left it, on this image or, rebound, on another),
// starting from the nearest anchor.
func (b *Binary) runTrialOn(m *vm.Machine, prof *Profile, costs pinfi.CostModel, seed uint64) TrialResult {
	rng := fault.NewRNG(seed)
	target := rng.Intn(prof.Targets)
	g := b.goldenAnchors(m, prof.Targets)
	return b.runTrialFrom(m, g, g.before(target), prof, costs, target, rng)
}

// runTrialFrom runs one trial against target from the n-th anchor of g — the
// runner owns the start state, one Restore or (n = 0) one Reset, and applies
// the budget, so injectors never reset — and finishes it at a later anchor
// it has rejoined (see Tail); tests cut g off after the n-th for none.
func (b *Binary) runTrialFrom(m *vm.Machine, g goldenRun, n int, prof *Profile, costs pinfi.CostModel, target int64, rng *fault.RNG) TrialResult {
	var from int64
	if n > 0 {
		m.Restore(g.snaps[n-1])
		from = g.dyns[n-1]
	} else {
		m.Reset()
	}
	m.Budget = prof.Budget
	skipped := m.InstrCount
	g.dyns, g.snaps = g.dyns[n:], g.snaps[n:]
	tail := &Tail{goldenRun: g, budget: prof.Budget}
	start := phaseStart()
	rec := b.Tool.Trial(m, b, prof, costs, from, target, rng, tail)
	b.trials.note(m.InstrCount-skipped, skipped, tail, start)
	if tail.rejoined {
		// The rest is the golden run's, which ended clean on its output.
		return TrialResult{Outcome: fault.Benign, Rec: rec, Cycles: m.Cycles + tail.cycles, Instrs: m.InstrCount + tail.instrs}
	}
	return TrialResult{
		Outcome: fault.Classify(m, prof.Golden),
		Rec:     rec,
		Cycles:  m.Cycles,
		Trap:    m.Trap,
		Instrs:  m.InstrCount,
	}
}

// Result aggregates one (application, tool) campaign.
type Result struct {
	App     string
	Tool    Tool
	Counts  fault.Counts
	Cycles  int64 // total modeled cycles across all trials
	Trials  int
	Profile *Profile
}
