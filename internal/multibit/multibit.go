// Package multibit registers REFINE2, a double bit-flip variant of the
// REFINE injector, through the public campaign registry — the package is the
// extensibility proof for the Campaign API v2: it adds a fourth fault model
// (two single-bit flips at consecutive dynamic target instructions, the
// double-fault model of multi-bit upset studies) without touching the
// orchestrator. The build pipeline and profiling step are REFINE's own (the
// injector embeds campaign.REFINE); only the trial-time control library
// differs, and it speaks the same selInstr/setupFI host protocol the
// instrumented binary already implements.
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
	"repro/internal/vx"
)

// Name is the injector's stable registry name.
const Name = "REFINE2"

// Injector is the registered double bit-flip REFINE variant.
var Injector campaign.Tool = &injector{Tool: campaign.REFINE}

func init() {
	campaign.Register(Injector)
}

// injector embeds REFINE itself for the build pipeline and the profiling
// step: the instrumented binary is bit-identical to a REFINE build, so the
// two injectors share cacheable artifacts in spirit (the cache still keys
// them separately by name, keeping the machine pools private).
type injector struct{ campaign.Tool }

func (injector) Name() string   { return Name }
func (injector) String() string { return Name }

// Trial injects two single-bit faults: one at the target dynamic instruction
// and one at the immediately following dynamic target instruction, each with
// an independently drawn operand and bit. If execution never reaches another
// target site (the first flip crashed or diverted the program), only the
// first fault lands — as on real hardware, a dead process cannot be faulted
// twice.
func (injector) Trial(m *vm.Machine, b *campaign.Binary, _ *campaign.Profile, _ pinfi.CostModel, target int64, rng *fault.RNG) fault.Record {
	lib := &doubleLib{target: target, rng: rng}
	lib.Bind(m)
	m.Run()
	if lib.triggered {
		core.ResolveRecord(b.Img, &lib.rec, lib.opIdx)
	}
	return lib.rec
}

// doubleLib is the trial-time control library (paper Figure 3b, doubled): it
// triggers selInstr on the target-th and (target+1)-th dynamic target
// instructions and serves each setupFI call with a fresh uniform
// ⟨operand, bit⟩ draw. The returned fault record describes the first flip
// (the Record format logs one fault; the second draw consumes RNG state
// deterministically, so trials remain exactly reproducible).
type doubleLib struct {
	target int64
	rng    *fault.RNG

	count     int64
	flips     int
	rec       fault.Record
	opIdx     int
	triggered bool // first flip happened: rec identifies its site
	drawn     bool // first flip's ⟨operand, bit⟩ draw is in rec
}

func (l *doubleLib) Bind(m *vm.Machine) {
	m.BindHost(vm.HostFn{
		Name:         core.HostSelInstr,
		PreserveRegs: true,
		Fn: func(mm *vm.Machine) {
			if l.flips < 2 && (l.count == l.target || l.count == l.target+1) {
				if l.flips == 0 {
					l.rec.DynIdx = l.count
					l.rec.SiteID = int32(int64(mm.Regs[vx.R1]))
					l.triggered = true
				}
				l.flips++
				mm.Regs[vx.R0] = 1
			} else {
				mm.Regs[vx.R0] = 0
			}
			l.count++
		},
	})
	m.BindHost(vm.HostFn{
		Name:         core.HostSetupFI,
		PreserveRegs: true,
		Fn: func(mm *vm.Machine) {
			// Same defensive contract as the single-flip library: after a
			// fault, corrupted control flow can land mid-instrumentation with
			// garbage argument registers; return an inert ⟨op 0, bit 0⟩
			// instead of crashing the harness.
			nOps := int64(mm.Regs[vx.R1])
			sizes := [2]int64{int64(mm.Regs[vx.R2]), int64(mm.Regs[vx.R3])}
			if nOps < 1 || nOps > 2 || sizes[0] < 1 || (nOps == 2 && sizes[1] < 1) {
				mm.Regs[vx.R0] = 0
				return
			}
			op := l.rng.Intn(nOps)
			bit := l.rng.Intn(sizes[op])
			if l.triggered && !l.drawn {
				l.rec.Bit = uint(bit)
				l.opIdx = int(op)
				l.drawn = true
			}
			mm.Regs[vx.R0] = uint64(op)<<16 | uint64(bit)
		},
	})
}
