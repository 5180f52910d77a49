package multibit

// PINFI2: the binary-level double bit-flip injector, and the fire-point
// seam's hardest compositional test. The first flip injects at the target-th
// dynamic target occurrence — mappable to an absolute instruction index from
// the golden fire-point pass, so the prefix (the dominant cost) runs on the
// hook-free fast loop. The second flip cannot use a fire point: it lands on
// the (target+1)-th target occurrence of the *post-injection* execution,
// whose dynamics have diverged from the golden run the index was recorded
// on. The fire callback therefore attaches an inline counting hook primed
// with the occurrence count so far, and the run continues observed (through
// the VM's reference Step path, for the few instructions it takes) until the
// second flip detaches it — fire points where the golden trace is valid,
// counting where it is not.

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
// Only the callback that lands the second flip, the observer detached, looks
// for the golden run again: until then the observer is charging.
func (pinfi2Injector) Trial(m *vm.Machine, b *campaign.Binary, _ *campaign.Profile, costs pinfi.CostModel, _, target int64, rng *fault.RNG, tail *campaign.Tail) fault.Record {
	var rec fault.Record
	first := DoubleFlip(b.TargetMap(), costs, target, rng, &rec)
	pinfi.ArmFired(m, b.FirePoints(), costs, target, func(m *vm.Machine, pc int32, in *vm.Inst) {
		first(m, pc, in)
		second := m.Count.Fire
		m.Count.Fire = func(m *vm.Machine, pc int32, in *vm.Inst) {
			second(m, pc, in)
			tail.Chain(m)
		}
	})
	m.Run()
	return rec
}

// DoubleFlip is the double-flip injection: pinfi's register flip at the
// target occurrence, logged to rec, which then attaches the counting hook
// that lands the same flip once more (the Record format logs one fault, so
// the second flip's log is dropped; its draw consumes RNG state
// deterministically). N primes to target+1 — this occurrence was number
// target, and counting advances past it before looking for the next — armed
// for the very next target occurrence of the now-diverged stream; the second
// flip detaches, as the single-flip trial does. If the first flip crashes or
// diverts the program away from every remaining target site, only it lands
// (a dead process cannot be faulted twice); if the budget expires before the
// first flip, neither does.
func DoubleFlip(targets []bool, costs pinfi.CostModel, target int64, rng *fault.RNG, rec *fault.Record) vm.ExecHook {
	flip := pinfi.Flip(target, rng, rec)
	return func(m *vm.Machine, pc int32, in *vm.Inst) {
		flip(m, pc, in)
		first := *rec
		m.Count = &vm.CountHook{
			Targets: targets, PerInstr: costs.PerInstr, N: target + 1, Arm: target + 1,
			Fire: func(mm *vm.Machine, pc int32, in *vm.Inst) {
				mm.Count = nil
				flip(mm, pc, in)
				*rec = first
			},
		}
	}
}
