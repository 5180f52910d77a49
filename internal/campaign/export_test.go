package campaign

import (
	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/vm"
)

// Test-only access to the trial start state (anchors.go) for the external
// test package, which needs every registered tool and therefore cannot live
// inside package campaign.

// AnchorDyns returns the dynamic target index of each of the binary's
// anchors, capturing them on m if no trial has yet.
func (b *Binary) AnchorDyns(m *vm.Machine, prof *Profile) []int64 {
	b.anchorFor(m, prof.Targets, 0)
	dyns := make([]int64, len(b.anchors))
	for i, a := range b.anchors {
		dyns[i] = a.dyn
	}
	return dyns
}

// TrialAt runs one trial against an explicit target on m: from the nearest
// anchor, as the runner starts it, or — anchored false — from Reset, the
// start state the anchored trial must be indistinguishable from.
func (b *Binary) TrialAt(m *vm.Machine, prof *Profile, costs pinfi.CostModel, target int64, seed uint64, anchored bool) TrialResult {
	var a *anchor
	if anchored {
		a = b.anchorFor(m, prof.Targets, target)
	}
	return b.runTrialFrom(m, a, prof, costs, target, fault.NewRNG(seed))
}
