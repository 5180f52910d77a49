// Package multibit registers REFINE2, a double bit-flip variant of the
// REFINE injector, through the public campaign registry — the package is the
// extensibility proof for the Campaign API v2: it adds a fourth fault model
// (two single-bit flips at consecutive dynamic target instructions, the
// double-fault model of multi-bit upset studies) without touching the
// orchestrator. The build pipeline and profiling step are REFINE's own (the
// injector embeds campaign.REFINE), and so is the control library: a trial
// binds core.Lib with Flips: 2.
//
// Blank-import the package (or use ToolByName("REFINE2") after any importer
// linked it) to make the injector selectable:
//
//	import _ "repro/internal/multibit"
//	tool, _ := campaign.ToolByName(multibit.Name)
package multibit

import (
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/vm"
)

// Name is the injector's stable registry name.
const Name = "REFINE2"

// Injector is the registered double bit-flip REFINE variant.
var Injector campaign.Tool = &injector{Tool: campaign.REFINE}

func init() {
	campaign.Register(Injector)
}

// injector embeds REFINE itself for the build pipeline, the profiling step
// and the replay that golden-run snapshots are taken from — and for Level:
// the instrumented binary is bit-identical to a REFINE build, so a cache
// hands both injectors the same "backend" build, profile, anchors and machine
// pool. Only Trial is REFINE2's own.
type injector struct{ campaign.Tool }

func (injector) Name() string   { return Name }
func (injector) String() string { return Name }

// Trial injects two single-bit faults: one at the target dynamic instruction
// and one at the immediately following dynamic target instruction, each with
// an independently drawn operand and bit. If execution never reaches another
// target site (the first flip crashed or diverted the program), only the
// first fault lands — as on real hardware, a dead process cannot be faulted
// twice. The returned record describes the first flip.
func (injector) Trial(m *vm.Machine, b *campaign.Binary, _ *campaign.Profile, _ pinfi.CostModel, from, target int64, rng *fault.RNG, tail *campaign.Tail) fault.Record {
	lib := &core.Lib{Target: target, RNG: rng, Flips: 2, Count: from,
		Marks: tail.Marks(target + 3), AtMark: func(dyn int64) { tail.Rejoined(m, dyn) }}
	lib.Bind(m)
	m.Run()
	lib.ResolveRecord(b.Img)
	return lib.Rec
}
