package campaign

import (
	"slices"

	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/vm"
)

// Test-only access to the trial start state (anchors.go) and the machine
// pool (cache.go) for the external test package, which needs every
// registered tool and therefore cannot live inside package campaign.

// AnchorDyns returns the dynamic target index of each of the binary's
// anchors, capturing them on m if no trial has yet.
func (b *Binary) AnchorDyns(m *vm.Machine, prof *Profile) []int64 {
	return slices.Clone(b.goldenAnchors(m, prof.Targets).dyns)
}

// Start is how TrialAt runs a trial.
type Start int

const (
	// FromReset starts at instruction 0 and runs to the end: the reference
	// every other trial must be indistinguishable from.
	FromReset Start = iota
	// FromAnchor starts from the nearest anchor and runs to the end.
	FromAnchor
	// AsRun is the runner's trial: from the nearest anchor, finished at a
	// later one it has rejoined the golden run at.
	AsRun
)

// TrialAt runs one trial against an explicit target on m. The reference
// forms are the runner's own function on a golden run with nothing behind
// the start state, or with nothing at all.
func (b *Binary) TrialAt(m *vm.Machine, prof *Profile, costs pinfi.CostModel, target int64, rng *fault.RNG, how Start) TrialResult {
	var g goldenRun
	n := 0
	if how != FromReset {
		g = b.goldenAnchors(m, prof.Targets)
		n = g.before(target)
	}
	if how != AsRun {
		g.dyns, g.snaps = g.dyns[:n], g.snaps[:n]
	}
	return b.runTrialFrom(m, g, n, prof, costs, target, rng)
}

// PooledTrial is one iteration of the campaign runner: the trial of seed on
// a machine borrowed from the process's pool and returned to it afterwards.
// It also returns that machine and the size of the address space it was
// lent with.
func (b *Binary) PooledTrial(prof *Profile, costs pinfi.CostModel, seed uint64) (TrialResult, *vm.Machine, int) {
	m := b.acquireMachine()
	defer b.ReleaseMachine(m)
	size := len(m.Mem)
	return b.runTrialOn(m, prof, costs, seed), m, size
}

// NewAddressSpaces reports how many address spaces NewMachine has allocated
// in this process.
func NewAddressSpaces() uint64 { return newMachines.Load() }

// DropIdleMachines empties the process's machine pool, so that the next
// borrower of every size allocates.
func DropIdleMachines() {
	idle.Lock()
	clear(idle.bySize)
	idle.Unlock()
}
