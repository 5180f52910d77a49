// Package opcodefi registers OPCODE and OPCODE-VALID, opcode-corruption
// injectors built on pinfi.CorruptOpcode (paper §4.5: true opcode corruption,
// which the published REFINE lists as future work). Like PINFI the injectors
// need no static instrumentation; unlike PINFI's transient register flips,
// the fault is a persistent bit flip in the target instruction's opcode
// byte, so the trial must mutate the loaded image in place.
//
// That mutation used to be the one documented hazard of the build/profile
// cache ("opcode-corruption experiments must not run on a shared cached
// Binary"). The injectors remove it by never touching the shared image:
// each trial swaps the pooled machine onto a private image clone
// (Binary.AcquireImageClone — copy-on-first-acquire, pooled on the Binary
// so clones share its lifetime; the opcode is restored before the clone is
// released, so a pooled clone is always pristine). Cached binaries, pooled
// machines and concurrent workers all compose with opcode corruption
// exactly as with every other injector.
package opcodefi

import (
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/vm"
)

// Name is the registry name of the binary-level-semantics injector
// (bit flips may produce invalid encodings, which trap like a corrupt text
// page).
const Name = "OPCODE"

// ValidName is the registry name of the compiler-emission-semantics variant
// (redraw until the flipped opcode is valid — the published REFINE
// restriction, §4.5).
const ValidName = "OPCODE-VALID"

// Injector is the registered OPCODE injector.
var Injector campaign.Tool = &injector{
	ToolName: campaign.ToolName(Name), mode: pinfi.OpcodeAny,
}

// ValidInjector is the registered OPCODE-VALID injector.
var ValidInjector campaign.Tool = &injector{
	ToolName: campaign.ToolName(ValidName), mode: pinfi.OpcodeValidOnly,
}

func init() {
	campaign.Register(Injector)
	campaign.Register(ValidInjector)
}

type injector struct {
	campaign.ToolName
	campaign.BinaryLevel
	mode pinfi.OpcodeMode
}

// Trial swaps the pooled machine onto a private image clone (pooled on the
// Binary, so the clones share its lifetime), runs one opcode-corruption
// experiment, and restores the shared image. The machine keeps its memory
// and host bindings across the swap: the clone shares the original's
// initialized data and host-symbol table, so the start state the runner set
// — a reset, or a snapshot of the shared image's golden run, swapped onto
// the clone only here, after the restore — stands and every HostIdx resolves
// identically. The fire-point index maps
// the target occurrence to its absolute instruction index (recorded on the
// shared image; the pristine clone's dynamics are identical), so the whole
// trial — prefix, corruption, post-corruption suffix — runs on the hook-free
// fast loop. The flipped opcode is restored before the clone is released, so
// released clones are always pristine. The Tail goes unused: the fault is
// in the clone's instruction stream, which no snapshot holds, so a state
// equal to the golden run's says nothing about what runs next.
func (j *injector) Trial(m *vm.Machine, b *campaign.Binary, _ *campaign.Profile, costs pinfi.CostModel, _, target int64, rng *fault.RNG, _ *campaign.Tail) fault.Record {
	priv := b.AcquireImageClone()
	base := m.Img
	m.Img = priv
	var rec fault.Record
	inject, restore := pinfi.CorruptOpcode(target, j.mode, rng, &rec)
	pinfi.RunFired(m, b.FirePoints(), costs, target, inject)
	restore()
	m.Img = base
	b.ReleaseImageClone(priv)
	return rec
}
