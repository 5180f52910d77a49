package campaign

// The paper's three tools as registry entries. Each injector folds the
// build-pipeline, profiling and trial semantics that used to live in three
// switch statements inside the orchestrator into one value; the orchestrator
// itself is now tool-agnostic interface dispatch.

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/llfi"
	"repro/internal/mir"
	"repro/internal/pinfi"
	"repro/internal/vm"
)

// Registered singletons for the paper's tools, in presentation order.
var (
	// LLFI instruments the optimized IR (paper §3.3): population misses
	// backend-generated instructions, and the injectFault calls perturb
	// code generation.
	LLFI Tool = &llfiInjector{ToolName: "LLFI"}
	// REFINE instruments the final machine program (paper §4): full
	// machine-level population with no code-generation interference.
	REFINE Tool = &refineInjector{ToolName: "REFINE"}
	// PINFI is the binary-level baseline: no static instrumentation,
	// pinfi.Observe stands in for PIN's dynamic instrumentation during the
	// profile and a fire point schedules each trial's injection.
	PINFI Tool = &pinfiInjector{ToolName: "PINFI"}
)

// Tools lists the paper's tools in its presentation order. Extensions
// registered by other packages appear in RegisteredTools, not here.
var Tools = []Tool{LLFI, REFINE, PINFI}

func init() {
	for _, t := range Tools {
		Register(t)
	}
}

// llfiInjector ----------------------------------------------------------------

type llfiInjector struct{ ToolName }

func (llfiInjector) Level() string { return "ir" }

func (llfiInjector) InstrumentIR(m *ir.Module, cfg fault.Config) int {
	return llfi.Instrument(m, cfg)
}

func (llfiInjector) InstrumentMachine(*mir.Prog, fault.Config) (int, error) { return 0, nil }

func (llfiInjector) Profile(m *vm.Machine, _ *Binary, _ pinfi.CostModel) (int64, []uint64) {
	lib := &llfi.Lib{Target: -1}
	lib.Bind(m)
	m.Run()
	return lib.Count, append([]uint64(nil), m.Output...)
}

func (llfiInjector) Replay(m *vm.Machine, _ *Binary, marks []int64, at func(dyn int64)) {
	(&llfi.Lib{Target: -1, Marks: marks, AtMark: at}).Bind(m)
	m.Run()
}

func (llfiInjector) Trial(m *vm.Machine, _ *Binary, _ *Profile, _ pinfi.CostModel, from, target int64, rng *fault.RNG, tail *Tail) fault.Record {
	lib := &llfi.Lib{Target: target, RNG: rng, Count: from,
		Marks: tail.Marks(target + 1), AtMark: func(dyn int64) { tail.Rejoined(m, dyn) }}
	lib.Bind(m)
	m.Run()
	return lib.Rec
}

// refineInjector --------------------------------------------------------------

type refineInjector struct{ ToolName }

func (refineInjector) Level() string { return "backend" }

func (refineInjector) InstrumentIR(*ir.Module, fault.Config) int { return 0 }

func (refineInjector) InstrumentMachine(p *mir.Prog, cfg fault.Config) (int, error) {
	return core.Instrument(p, cfg)
}

func (refineInjector) Profile(m *vm.Machine, _ *Binary, _ pinfi.CostModel) (int64, []uint64) {
	lib := &core.Lib{Target: -1}
	lib.Bind(m)
	m.Run()
	return lib.Count, append([]uint64(nil), m.Output...)
}

func (refineInjector) Replay(m *vm.Machine, _ *Binary, marks []int64, at func(dyn int64)) {
	(&core.Lib{Target: -1, Marks: marks, AtMark: at}).Bind(m)
	m.Run()
}

func (refineInjector) Trial(m *vm.Machine, b *Binary, _ *Profile, _ pinfi.CostModel, from, target int64, rng *fault.RNG, tail *Tail) fault.Record {
	lib := &core.Lib{Target: target, RNG: rng, Count: from,
		Marks: tail.Marks(target + 2), AtMark: func(dyn int64) { tail.Rejoined(m, dyn) }}
	lib.Bind(m)
	m.Run()
	lib.ResolveRecord(b.Img)
	return lib.Rec
}

// pinfiInjector ---------------------------------------------------------------

type pinfiInjector struct {
	ToolName
	BinaryLevel
}

func (pinfiInjector) Trial(m *vm.Machine, b *Binary, _ *Profile, costs pinfi.CostModel, _, target int64, rng *fault.RNG, tail *Tail) fault.Record {
	var rec fault.Record
	flip := pinfi.Flip(target, rng, &rec)
	pinfi.RunFired(m, b.FirePoints(), costs, target, func(m *vm.Machine, pc int32, in *vm.Inst) {
		flip(m, pc, in)
		tail.Chain(m)
	})
	return rec
}
