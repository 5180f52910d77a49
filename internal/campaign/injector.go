package campaign

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/mir"
	"repro/internal/pinfi"
	"repro/internal/vm"
)

// Injector is a pluggable fault-injection tool: it hooks the shared build
// pipeline at the two instrumentation points, runs the profiling step,
// replays it for the runner to snapshot, and executes single trials from
// the start state the runner hands it. The orchestrator (BuildBinary, RunProfile, the
// campaign runner) is generic over this interface; registering a new
// injector — a new fault model, a new instrumentation level — requires no
// orchestrator changes. The paper's three tools and the multi-bit REFINE
// variant are all registry entries.
//
// Implementations must be safe for concurrent Trial calls on distinct
// machines: campaign workers share one Injector across goroutines, so any
// per-trial state belongs in locals (or a library value bound to the
// machine), never on the injector itself.
type Injector interface {
	// Name is the stable identifier used for CLI selection (-tools), trial-
	// seed derivation and result addresses (journal, section entries). It
	// must be unique across the registry and must never change once results
	// depend on it. String must return the same value (embed ToolName).
	Name() string
	fmt.Stringer

	// Level is the stable name of the tool's build half — the two hooks
	// below, Profile and Replay — and what a Cache keys a build by: tools
	// with one Level must build, profile and replay identically, and share
	// one build (image, fire-point index, anchors) with only Trial their
	// own. Registered: "ir" (LLFI), "backend" (REFINE, REFINE2), "binary"
	// (embed BinaryLevel). A hand-written injector returns its own Name and
	// shares with nobody.
	Level() string

	// InstrumentIR instruments the optimized, not-yet-legalized IR module
	// (the LLFI hook point: after -O2, before lowering) and returns the
	// number of static sites added. Tools that do not instrument IR return 0
	// and leave the module untouched.
	InstrumentIR(m *ir.Module, cfg fault.Config) int

	// InstrumentMachine instruments the final machine program (the REFINE
	// hook point: after instruction selection, register allocation and frame
	// lowering, before assembly) and returns the number of static sites
	// added. Tools that do not instrument machine code return 0, nil.
	InstrumentMachine(p *mir.Prog, cfg fault.Config) (int, error)

	// Profile runs the profiling step (paper Figure 3a) on a reset machine
	// for b with only output bound: it must execute the program once,
	// counting the dynamic target population and collecting the golden
	// output. The orchestrator validates the run (no trap, clean exit,
	// non-empty population) and derives the timeout budget afterwards.
	Profile(m *vm.Machine, b *Binary, costs pinfi.CostModel) (targets int64, golden []uint64)

	// Replay re-runs the never-firing golden pass of Profile on m, which
	// arrives reset and without a budget, to its end, and calls at(dyn) for
	// each dyn in marks (ascending, 1 ≤ dyn ≤ the population) at the
	// inter-instruction boundary where exactly dyn dynamic targets have been
	// consumed — the last of them has done all it does on a run that does not
	// fire there, the next has not begun. The runner snapshots the machine in
	// at and reads the golden run's length off it afterwards (see anchors.go),
	// so m.Cycles must be the golden run's bare count throughout: what a cost
	// model charges for a prefix is Trial's to add.
	Replay(m *vm.Machine, b *Binary, marks []int64, at func(dyn int64))

	// Trial executes one fault-injection experiment against the given
	// dynamic target index, leaving the machine halted for outcome
	// classification. The runner owns the start state and Trial must not
	// reset: m arrives (possibly recycled from a pool) with prof.Budget
	// applied, no trace attached and nothing armed, in the state of the
	// golden run at the boundary where from ≤ target dynamic targets have
	// been consumed — freshly reset when from is 0, restored from a snapshot
	// Replay let the runner take otherwise, with InstrCount, Cycles and the
	// output of that prefix. A tool that counts targets as it runs starts
	// its count at from.
	//
	// tail, never nil, is the golden run behind the fault: the later
	// snapshots, at which the trial may find it has rejoined that run and
	// stop (see Tail). A Trial that leaves it alone runs to its end.
	Trial(m *vm.Machine, b *Binary, prof *Profile, costs pinfi.CostModel, from, target int64, rng *fault.RNG, tail *Tail) fault.Record
}

// Tool is the campaign-facing alias for Injector. Historically Tool was a
// closed uint8 enum; it is now an open interface, and the LLFI / REFINE /
// PINFI values are registered singletons. Tool values are comparable (the
// registry hands out pointers), so they still work as map keys.
type Tool = Injector

// FirePointUser is the optional marker interface for injectors whose Trial
// runs over the build's fire-point index (Binary.FirePoints); embed
// BinaryLevel to implement it. The disk cache uses it to refuse a restored
// entry whose index is missing or does not match the profile.
type FirePointUser interface {
	UsesFirePoints() bool
}

// BinaryLevel is the embeddable build half of a binary-level injector
// (PINFI, OPCODE, OPCODE-VALID, PINFI2), and the "binary" Level they share a
// build under: no static instrumentation — the population is the plain
// binary's dynamic instruction stream — and PINFI's profiling step, whose one
// observed golden pass under the PIN-style cost model also records the
// fire-point index the tools' trials — and the golden-run snapshots they
// start from — are scheduled from. Only Trial is left to the embedding
// injector.
type BinaryLevel struct{}

func (BinaryLevel) Level() string { return "binary" }

func (BinaryLevel) InstrumentIR(*ir.Module, fault.Config) int { return 0 }

func (BinaryLevel) InstrumentMachine(*mir.Prog, fault.Config) (int, error) { return 0, nil }

func (BinaryLevel) Profile(m *vm.Machine, b *Binary, costs pinfi.CostModel) (int64, []uint64) {
	fps, golden := pinfi.Profile(m, b.TargetMap(), costs)
	b.firePts = fps
	return fps.N, golden
}

// Replay runs the plain binary hook-free with a chain of fire points, each
// armed by its predecessor, at the golden-run instruction where the last of
// the mark's dyn targets commits. No instrumentation cost is charged: a
// snapshot taken here holds the golden run's bare Cycles, and pinfi.RunFired
// charges the skipped prefix under the trial's own cost model.
func (BinaryLevel) Replay(m *vm.Machine, b *Binary, marks []int64, at func(dyn int64)) {
	fps := b.FirePoints()
	var arm func(i int)
	arm = func(i int) {
		if i == len(marks) {
			return
		}
		instr, pc := fps.Lookup(marks[i] - 1)
		m.ArmFire(&vm.FirePoint{At: instr, PC: pc, Fn: func(*vm.Machine, int32, *vm.Inst) {
			at(marks[i])
			arm(i + 1)
		}})
	}
	arm(0)
	m.Run()
}

func (BinaryLevel) UsesFirePoints() bool { return true }

// ToolName implements the Name and String halves of an Injector by value;
// embed it to get stable naming plus fmt.Stringer for log lines.
type ToolName string

// Name returns the registered tool name.
func (n ToolName) Name() string { return string(n) }

// String returns the registered tool name (fmt.Stringer).
func (n ToolName) String() string { return string(n) }

// registry maps stable names to injectors. Registration normally happens in
// package init functions (the built-in three here, extensions in their own
// packages), so the mutex is belt-and-braces for dynamic registration.
var registry = struct {
	mu    sync.RWMutex
	tools map[string]Tool
	order []Tool // registration order
}{tools: map[string]Tool{}}

// Register adds an injector to the registry under its Name. It panics on an
// empty or duplicate name: injector identity is part of the experimental
// record (seeds and cache keys derive from it), so a silent overwrite would
// corrupt results.
func Register(t Tool) {
	name := t.Name()
	if name == "" {
		panic("campaign: Register: injector with empty name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.tools[name]; dup {
		panic(fmt.Sprintf("campaign: Register: duplicate injector %q", name))
	}
	registry.tools[name] = t
	registry.order = append(registry.order, t)
}

// ToolByName resolves a registered injector by its stable name.
func ToolByName(name string) (Tool, error) {
	registry.mu.RLock()
	t, ok := registry.tools[name]
	registry.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("campaign: unknown tool %q (registered: %v)", name, ToolNames())
	}
	return t, nil
}

// RegisteredTools returns every registered injector in registration order
// (the built-in three first, extensions after).
func RegisteredTools() []Tool {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return append([]Tool(nil), registry.order...)
}

// ToolNames returns the sorted names of all registered injectors.
func ToolNames() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	names := make([]string, 0, len(registry.tools))
	for n := range registry.tools {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// seedSalt derives the per-tool seed stream salt from the stable name
// (FNV-1a), so trial seeds depend only on the name — not on registration
// order or any enum value — and third-party injectors get independent
// streams for free.
func seedSalt(t Tool) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range []byte(t.Name()) {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// TrialSeed derives the RNG seed of trial i for a tool. Each tool gets an
// independent stream keyed by its stable name: the paper's campaigns are
// independent samples of the same fault-outcome distribution per tool, not
// replays of one sample (the exact-replay property is covered separately by
// the REFINE≡PINFI equivalence tests, which pass identical seeds to both
// tools explicitly).
func TrialSeed(baseSeed uint64, tool Tool, i int) uint64 {
	return fault.NewRNG(baseSeed ^ seedSalt(tool) ^ uint64(i)).Next()
}
