package campaign

import (
	"repro/internal/vm"
)

// Prefix anchors. Until its fault lands a trial is the golden run, so a
// Binary memoizes a few snapshots of that run — anchors, evenly spaced in
// dynamic target index, which is what a trial's seed draws uniformly — and a
// trial starts from the nearest one at or before its target instead of
// re-executing the prefix from Reset. Reset is the anchor at 0. The
// mechanism is the same for every tool: Injector.Replay re-runs the golden
// pass and stops at the marks, vm.Machine.Snapshot and Restore carry the
// state, and Injector.Trial is told how many targets its start state has
// consumed. Everything a campaign derives from a trial is bit-identical to
// the reset-started trial's; the differential suite in anchors_test.go holds
// every registered tool to that.
//
// Cycle accounting. A snapshot holds the golden run's bare Cycles at its
// boundary: the replay charges no cost model, so an anchor belongs to none.
// A binary-level trial is made whole in pinfi.ArmFired, which adds the JIT
// lump plus PerInstr for the restored InstrCount and arms its fire point
// from there, so the lump sum at the fire covers the remainder. A control
// library's call latencies are ordinary Cycles; its snapshot is taken right
// behind the call that consumed target dyn-1 and answered 0, which is why an
// anchor serves targets ≥ dyn only and the library's count starts at dyn.
// OPCODE swaps its private image clone in after the restore.
//
// Anchors live on the Binary for as long as it does — never on disk, never
// on the wire — and are captured lazily, by the first trial: the spacing
// needs the population size a profile pass is still counting, a disk-restored
// binary never runs a profile, and BuildAndProfile stays one golden pass.

const (
	// maxAnchors bounds the snapshots per binary. The saving flattens out —
	// k anchors leave about 1/(k+1) of the mean prefix — while resident
	// memory grows linearly; 16 already showed in the benchmark's peak RSS.
	maxAnchors = 8
	// anchorByteCap bounds what one binary's snapshots retain. The
	// evaluation kernels dirty 2–9 pages, of which a snapshot keeps 0.3–29
	// KiB; a workload with a large footprint keeps the anchors that fit,
	// earliest first, and none at all if its first snapshot alone is over.
	anchorByteCap = 1 << 20
)

// anchor is one memoized start state: the golden run at the boundary where
// dyn dynamic targets have been consumed.
type anchor struct {
	dyn  int64
	snap *vm.Snapshot
}

// captureAnchors replays the golden pass once on m and snapshots it at up to
// maxAnchors evenly spaced marks. m is the machine the calling trial already
// holds, on purpose: a second machine per binary is a second 4 MiB address
// space, and with dozens of binaries in a suite the recycled spans it is
// carved from get zeroed and become resident (measured: +11 to +55 MB peak
// RSS on the benchmark's fired_serial workload).
func (b *Binary) captureAnchors(m *vm.Machine, targets int64) {
	var marks []int64
	last := int64(0) // Reset is the anchor at 0; a tiny population repeats marks
	for k := int64(1); k <= maxAnchors; k++ {
		if dyn := k * targets / (maxAnchors + 1); dyn > last {
			marks = append(marks, dyn)
			last = dyn
		}
	}
	if len(marks) == 0 {
		return
	}
	m.Reset()
	start := phaseStart()
	retained := 0
	b.Tool.Replay(m, b, marks, func(dyn int64) {
		if retained > anchorByteCap {
			return // snapshots only grow along a run
		}
		s := m.Snapshot()
		if retained += s.Bytes(); retained <= anchorByteCap {
			b.anchors = append(b.anchors, anchor{dyn: dyn, snap: s})
		}
	})
	noteProfilePhase(m.InstrCount, start)
}

// anchorFor returns the nearest anchor at or before target, or nil when the
// trial starts from Reset. The first call on a binary captures its anchors,
// on m.
func (b *Binary) anchorFor(m *vm.Machine, targets, target int64) *anchor {
	b.anchorOnce.Do(func() { b.captureAnchors(m, targets) })
	for i := len(b.anchors) - 1; i >= 0; i-- {
		if b.anchors[i].dyn <= target {
			return &b.anchors[i]
		}
	}
	return nil
}
