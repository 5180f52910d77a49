package campaign

import (
	"slices"

	"repro/internal/vm"
)

// Anchors. Until its fault lands a trial is the golden run, and a trial that
// has absorbed its fault is the golden run again. So a Binary memoizes a few
// snapshots of that run — anchors, evenly spaced in dynamic target index,
// which is what a trial's seed draws uniformly — and a trial starts from the
// nearest one at or before its target instead of re-executing the prefix
// from Reset (the anchor at 0), and is over at the first one behind its fault
// whose state it equals instead of executing the tail (see Tail). The
// mechanism is the same for every tool: Injector.Replay re-runs the golden
// pass and stops at the marks, vm.Machine.Snapshot, Restore and
// Snapshot.Matches carry and compare the state, and Injector.Trial is told
// how many targets its start state has consumed and handed the anchors behind
// it. Everything a campaign derives from a trial is bit-identical to the
// trial's that starts at Reset and runs to its end; the differential suites
// in anchors_test.go hold every registered tool to that.
//
// Cycle accounting. A snapshot holds the golden run's bare Cycles at its
// boundary: the replay charges no cost model, so an anchor belongs to none.
// A binary-level trial is made whole in pinfi.RunFired, which charges the JIT
// lump plus PerInstr for every instruction up to the injection, the restored
// ones included, once the run is over. A control library's call latencies
// are ordinary Cycles; its snapshot is taken right
// behind the call that consumed target dyn-1 and answered 0, which is why an
// anchor serves targets ≥ dyn only and the library's count starts at dyn.
// OPCODE swaps its private image clone in after the restore. The same bare
// counts finish a rejoined trial, whose instrumentation has detached by then.
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

// goldenRun is what a build holds of its golden run: snaps[i] is the machine
// where dyns[i] dynamic targets have been consumed, ascending, and the run
// ends at endInstrs, in endCycles bare cycles like the snapshots'.
type goldenRun struct {
	dyns                 []int64
	snaps                []*vm.Snapshot
	endInstrs, endCycles int64
}

// before returns how many of the anchors are at or before target.
func (g goldenRun) before(target int64) int {
	n := 0
	for n < len(g.dyns) && g.dyns[n] <= target {
		n++
	}
	return n
}

// captureAnchors replays the golden pass once on m, snapshots it at up to
// maxAnchors evenly spaced marks and notes where it ends. m is the machine
// the calling trial already holds, on purpose: a second one would be a second
// 4 MiB address space in use at once on the capturing worker, and the
// process's pool keeps every machine it has ever lent out, so it would stay
// resident for the rest of the process.
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
	g, retained := &b.golden, 0
	b.Tool.Replay(m, b, marks, func(dyn int64) {
		if retained > anchorByteCap {
			return // snapshots only grow along a run
		}
		s := m.Snapshot()
		if retained += s.Bytes(); retained <= anchorByteCap {
			g.dyns, g.snaps = append(g.dyns, dyn), append(g.snaps, s)
		}
	})
	g.endInstrs, g.endCycles = m.InstrCount, m.Cycles
	b.phases.noteProfile(m.InstrCount, start)
}

// goldenAnchors returns the build's anchors; the first call on a build
// captures them, on m.
func (b *Binary) goldenAnchors(m *vm.Machine, targets int64) goldenRun {
	b.anchorOnce.Do(func() { b.captureAnchors(m, targets) })
	return b.golden
}

// Tail is the golden run behind a trial's fault: the anchors after the
// trial's start state, handed to Injector.Trial so that a trial that has
// rejoined the golden run is over. The VM is deterministic: once every flip
// has landed and nothing of the injector is pending — no instrumentation
// stepping, the control library past its trigger window — a machine whose
// state equals an anchor's (vm.Snapshot.Matches) has the golden run's
// remainder ahead of it. Rejoined halts it there and the runner finishes the
// trial: benign, the golden run's remaining instructions and bare cycles
// added.
//
// The comparison is made where the anchor was taken. A binary-level trial is
// in step with the golden run, so Chain compares at the anchor's InstrCount.
// A control-library trial is not — its triggered site executes setupFI and
// the flip sequence, so it reaches the golden state some dozens of
// instructions late — and compares right behind the library call that brings
// the target count to the anchor's: Marks and Rejoined are that library's
// Marks and AtMark. An injector that ignores its Tail is never pruned; one
// whose fault is outside the machine's state (OPCODE's image clone) must.
type Tail struct {
	goldenRun
	budget         int64
	rejoined       bool         // set by Rejoined on a match, with the golden
	instrs, cycles int64        // run's remainder from the anchor
	fire           vm.FirePoint // Chain's one fire point, armed for the
	next           int          // anchor at next
}

// Marks returns the anchors' target counts from min on: the first count at
// which every flip is in (behind the call that counts target+1 a REFINE
// trial has been told to flip and has not yet; an LLFI trial has).
func (t *Tail) Marks(min int64) []int64 { return t.dyns[t.before(min-1):] }

// Rejoined compares m, where dyn (one of Marks) targets have been consumed,
// with the golden run there and halts it on a match — unless the trial's
// length, finished, would be over the budget: it times out as it always has.
func (t *Tail) Rejoined(m *vm.Machine, dyn int64) bool {
	s := t.snaps[slices.Index(t.dyns, dyn)]
	at, cycles := s.At()
	if m.InstrCount+t.endInstrs-at > t.budget || !s.Matches(m) {
		return false
	}
	t.rejoined, t.instrs, t.cycles = true, t.endInstrs-at, t.endCycles-cycles
	m.Halted = true
	return true
}

// Chain is Marks and Rejoined for a binary-level injector: called as the
// last flip lands, the instrumentation detached, it arms the fire point at
// the first anchor ahead of the machine, which compares or arms the next.
func (t *Tail) Chain(m *vm.Machine) {
	if t.fire.Fn == nil {
		t.fire.Fn = func(m *vm.Machine, _ int32, _ *vm.Inst) {
			if !t.Rejoined(m, t.dyns[t.next]) {
				t.Chain(m)
			}
		}
	}
	for ; t.next < len(t.snaps); t.next++ {
		if t.fire.At, _ = t.snaps[t.next].At(); t.fire.At > m.InstrCount {
			m.ArmFire(&t.fire)
			return
		}
	}
}
