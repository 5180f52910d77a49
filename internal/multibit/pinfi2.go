package multibit

// PINFI2: the binary-level double bit-flip injector, and the fire-point
// seam's hardest compositional test. The first flip injects at the target-th
// dynamic target occurrence — mappable to an absolute instruction index from
// the golden fire-point pass, so the prefix (the dominant cost) runs on the
// hook-free fast loop. The second flip cannot use a fire point: it lands on
// the (target+1)-th target occurrence of the *post-injection* execution,
// whose dynamics have diverged from the golden run the index was recorded
// on. The fire callback therefore observes the run on (pinfi.Observe, through
// the VM's reference Step path, for the few instructions it takes) until the
// second flip lands and detaches, and the fast loop resumes from there —
// fire points where the golden trace is valid, counting where it is not.

import (
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/vm"
)

// PINFI2Name is the double-flip binary-level injector's stable registry name.
const PINFI2Name = "PINFI2"

// PINFI2Injector is the registered double bit-flip PINFI variant.
var PINFI2Injector campaign.Tool = &pinfi2Injector{ToolName: campaign.ToolName(PINFI2Name)}

func init() {
	campaign.Register(PINFI2Injector)
}

type pinfi2Injector struct {
	campaign.ToolName
	campaign.BinaryLevel
}

// Trial injects two single-bit register faults at consecutive dynamic target
// occurrences (the double-fault model), first flip via the fire-point index.
// Only the second flip, as it lands, looks for the golden run again: until
// then the instrumentation is charging.
func (pinfi2Injector) Trial(m *vm.Machine, b *campaign.Binary, _ *campaign.Profile, costs pinfi.CostModel, _, target int64, rng *fault.RNG, tail *campaign.Tail) fault.Record {
	var rec fault.Record
	pinfi.RunFired(m, b.FirePoints(), costs, target, DoubleFlip(b.TargetMap(), costs, target, rng, &rec, tail.Chain))
	return rec
}

// DoubleFlip is the double-flip injection: pinfi's register flip at the
// target occurrence, logged to rec, which then observes the run on and lands
// the same flip once more at the very next target occurrence of the
// now-diverged stream, detaches as the single-flip trial does, and calls
// landed. The Record format logs one fault, so the second
// flip's log is dropped; its draw consumes RNG state deterministically. If
// the first flip crashes or diverts the program away from every remaining
// target site, only it lands (a dead process cannot be faulted twice) and
// the observation lasts to the end of the run; if the budget expires before
// the first flip, neither does.
func DoubleFlip(targets []bool, costs pinfi.CostModel, target int64, rng *fault.RNG, rec *fault.Record, landed func(*vm.Machine)) vm.ExecHook {
	flip := pinfi.Flip(target, rng, rec)
	return func(m *vm.Machine, pc int32, in *vm.Inst) {
		flip(m, pc, in)
		first := *rec
		pinfi.Observe(m, costs, targets, func(pc int32) bool {
			flip(m, pc, &m.Img.Instrs[pc])
			*rec = first
			landed(m)
			return false
		})
	}
}
