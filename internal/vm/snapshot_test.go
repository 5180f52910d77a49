package vm_test

// Differential tests for Machine.Snapshot / Machine.Restore: a restored
// machine must be the stepped reference machine at the same
// inter-instruction boundary — registers, PC, InstrCount, Cycles, output and
// every byte of memory — run on to the same end, and share Reset's hygiene:
// nothing of the snapshot's golden data, and nothing of the run that
// followed it, may survive the next Reset or Restore of the machine.

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/campaign"
	"repro/internal/vm"
	"repro/internal/vx"
)

// snapshotsAt runs the golden pass on a fresh machine of bin, snapshotting
// it at each boundary (ascending InstrCounts) from a chain of fire points,
// and returns the snapshots with the finished machine.
func snapshotsAt(bin *campaign.Binary, boundaries []int64) ([]*vm.Snapshot, *vm.Machine) {
	m := bin.NewMachine()
	bindGolden(m, bin.Tool)
	var snaps []*vm.Snapshot
	var arm func()
	arm = func() {
		if len(snaps) == len(boundaries) {
			return
		}
		m.ArmFire(&vm.FirePoint{At: boundaries[len(snaps)], Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
			snaps = append(snaps, mm.Snapshot())
			arm()
		}})
	}
	arm()
	m.Run()
	return snaps, m
}

// TestRestoreMatchesSteppedMachine: boundaries spread over the golden run of
// every kernel under every tool pipeline — on REFINE images most of them cut
// a fused site, on all images some split a straight-line run.
func TestRestoreMatchesSteppedMachine(t *testing.T) {
	for _, name := range diffApps(t) {
		for _, tool := range campaign.Tools {
			bin := buildBin(t, name, tool)
			probe := bin.NewMachine()
			bindGolden(probe, tool)
			probe.Run()
			total := probe.InstrCount

			boundaries := []int64{1, total - 1}
			for k := int64(1); k <= 6; k++ {
				boundaries = append(boundaries, total*k/7+k)
			}
			sort.Slice(boundaries, func(i, j int) bool { return boundaries[i] < boundaries[j] })
			snaps, fast := snapshotsAt(bin, boundaries)
			if len(snaps) != len(boundaries) {
				t.Fatalf("%s/%s: %d of %d boundaries reached", name, tool, len(snaps), len(boundaries))
			}
			if !equalStates(snapshot(fast), snapshot(probe)) || !bytes.Equal(fast.Mem, probe.Mem) {
				t.Errorf("%s/%s: taking snapshots changed the run", name, tool)
			}

			ref := bin.NewMachine()
			bindGolden(ref, tool)
			restored := bin.NewMachine()
			for i, at := range boundaries {
				for ref.InstrCount < at {
					ref.Step()
				}
				restored.Budget = 99 // Restore clears it, like Reset
				restored.Restore(snaps[i])
				if rs, ss := snapshot(restored), snapshot(ref); !equalStates(rs, ss) {
					t.Errorf("%s/%s boundary %d: restored machine is not the stepped one:\nrestored: %+v\nstepped:  %+v", name, tool, at, rs, ss)
				}
				if !bytes.Equal(restored.Mem, ref.Mem) {
					t.Errorf("%s/%s boundary %d: restored memory is not the stepped machine's", name, tool, at)
				}
				if restored.Halted || restored.Budget != 0 || restored.Trace != nil || restored.FireArmed() {
					t.Errorf("%s/%s boundary %d: Restore left per-run state behind", name, tool, at)
				}
				bindGolden(restored, tool)
				restored.Run()
				if rs, fs := snapshot(restored), snapshot(fast); !equalStates(rs, fs) {
					t.Errorf("%s/%s boundary %d: run from the snapshot ended differently:\nrestored: %+v\ngolden:   %+v", name, tool, at, rs, fs)
				}
				if !bytes.Equal(restored.Mem, fast.Mem) {
					t.Errorf("%s/%s boundary %d: run from the snapshot left different memory", name, tool, at)
				}
			}
		}
	}
}

// TestRestoreSharesResetHygiene pins the dirty-set contract on a pooled
// machine's life: Restore, a run that crashes over stores to pages the
// golden run never touches, then Reset — memory must be a fresh machine's,
// so the dirty set after Restore has to cover the snapshot's own pages; and
// Restore of an earlier snapshot on top of a later one's run must equal that
// Restore on a fresh machine, so pages only the later state dirtied are
// swept.
func TestRestoreSharesResetHygiene(t *testing.T) {
	bin := buildBin(t, "CG", campaign.PINFI)
	probe := bin.NewMachine()
	probe.Run()
	total := probe.InstrCount
	snaps, _ := snapshotsAt(bin, []int64{total / 5, total * 4 / 5})
	early, late := snaps[0], snaps[1]

	// wild runs m on from its start state with the stack moved a megabyte
	// down: spills and return addresses land on pages of their own.
	wild := func(m *vm.Machine) {
		m.Budget = m.InstrCount + 20_000
		m.ArmFire(&vm.FirePoint{At: m.InstrCount + 10, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
			mm.Regs[vx.SP] -= 1 << 20
			mm.Regs[vx.BP] -= 1 << 20
		}})
		m.Run()
	}
	fresh := bin.NewMachine()

	m := bin.NewMachine()
	m.Restore(late)
	wild(m)
	if !m.Crashed() {
		t.Fatal("the wild run did not crash")
	}
	m.Reset()
	if !equalStates(snapshot(m), snapshot(fresh)) || !bytes.Equal(m.Mem, fresh.Mem) {
		t.Error("Restore → crash → Reset: not a fresh machine (golden data or wild stores left behind)")
	}

	m.Restore(late)
	wild(m)
	m.Restore(early)
	fresh.Restore(early)
	if !equalStates(snapshot(m), snapshot(fresh)) || !bytes.Equal(m.Mem, fresh.Mem) {
		t.Error("Restore(late) → crash → Restore(early): not a fresh machine's Restore(early)")
	}
	m.Run()
	fresh.Run()
	if !equalStates(snapshot(m), snapshot(probe)) || !equalStates(snapshot(fresh), snapshot(probe)) || !bytes.Equal(m.Mem, probe.Mem) {
		t.Error("golden run from the early snapshot ended differently on the reused machine")
	}
}
