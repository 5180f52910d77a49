package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/vx"
)

// TestCollectorReentrantObserver pins the observer-delivery seam: the
// Merger must invoke the user observer OUTSIDE its mutex, so a re-entrant
// observer — one that inspects Delivered (as a cancelling observer checking
// its partial prefix does) or adds follow-up work that lands back in the
// same Merger — cannot self-deadlock. Pre-fix, the ordered sink held its
// mutex across the observer call and both re-entrant paths deadlocked.
func TestCollectorReentrantObserver(t *testing.T) {
	var m *Merger
	var order []int
	m = New(App{}, PINFI, WithTrials(4), WithObserver(func(i int, tr TrialResult) {
		order = append(order, i)
		// Re-entrant inspection: pre-fix this blocked on the mutex the
		// delivering goroutine already holds.
		if got := m.Delivered(); got != i {
			t.Errorf("observer(%d): Delivered() = %d, want %d (trials fully applied before this one)", i, got, i)
		}
		if i == 0 {
			// Re-entrant add landing back in this Merger: the current
			// deliverer must pick it up instead of deadlocking.
			m.Add(3, TrialResult{Outcome: fault.Benign})
		}
	})).NewMerger()
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Add(1, TrialResult{Outcome: fault.Benign})
		m.Add(0, TrialResult{Outcome: fault.Benign})
		m.Add(2, TrialResult{Outcome: fault.Benign})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Merger deadlocked delivering with a re-entrant observer")
	}
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("observer saw %v, want %v", order, want)
	}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("observer saw %v, want %v (delivery must stay serialized and in order)", order, want)
		}
	}
	if got := m.Delivered(); got != 4 {
		t.Fatalf("Delivered() = %d, want 4", got)
	}
	res, err := m.Finish(context.Background())
	if err != nil || res.Counts.Benign != 4 {
		t.Fatalf("Finish = %+v, %v; want Counts.Benign 4", res.Counts, err)
	}
}

// startStateProbe is an injector whose Trial never resets and never sets a
// budget: it checks the machine the runner hands it against the golden run
// at the boundary the runner says it is at, then crashes it over dirtied
// memory, so the next trial on the pooled machine has something to be clean
// of.
type startStateProbe struct {
	ToolName
	BinaryLevel
	t *testing.T

	mu              sync.Mutex
	seen            map[*vm.Machine]bool
	reused          int
	anchored, reset int
	replays         int
	replayed, first *vm.Machine
}

func (p *startStateProbe) Replay(m *vm.Machine, b *Binary, marks []int64, at func(int64)) {
	p.replays++
	p.replayed = m
	p.BinaryLevel.Replay(m, b, marks, at)
}

func (p *startStateProbe) Trial(m *vm.Machine, b *Binary, prof *Profile, _ pinfi.CostModel, from, target int64, _ *fault.RNG, _ *Tail) fault.Record {
	// The golden run at from: a budget of exactly the instruction the
	// from-th target commits at stops a fresh machine on that boundary.
	golden := b.NewMachine()
	if from > 0 {
		golden.Budget, _ = b.FirePoints().Lookup(from - 1)
		golden.Run()
	}
	if from < 0 || from > target {
		p.t.Errorf("trial against target %d told its start state has consumed %d targets", target, from)
	}
	if m.Budget != prof.Budget || m.Trace != nil || m.FireArmed() || m.Halted || m.Trap != vm.TrapNone {
		p.t.Errorf("from %d: trial handed a machine not ready to run: Budget=%d (want %d) traced=%v armed=%v halted=%v trap=%v",
			from, m.Budget, prof.Budget, m.Trace != nil, m.FireArmed(), m.Halted, m.Trap)
	}
	if m.InstrCount != golden.InstrCount || m.Cycles != golden.Cycles || m.PC != golden.PC || m.Regs != golden.Regs ||
		!slices.Equal(m.Output, golden.Output) || !bytes.Equal(m.Mem, golden.Mem) {
		p.t.Errorf("from %d: start state is not the golden run's: InstrCount=%d (want %d) Cycles=%d (want %d) PC=%d (want %d), or registers, output or memory differ",
			from, m.InstrCount, golden.InstrCount, m.Cycles, golden.Cycles, m.PC, golden.PC)
	}
	p.mu.Lock()
	if p.first == nil {
		p.first = m
	}
	if p.seen[m] {
		p.reused++
	}
	p.seen[m] = true
	if from > 0 {
		p.anchored++
	} else {
		p.reset++
	}
	p.mu.Unlock()
	m.ArmFire(&vm.FirePoint{At: m.InstrCount + 5, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
		const addr = 1 << 20
		binary.LittleEndian.PutUint64(mm.Mem[addr:], 0xDEAD)
		mm.MarkMemWritten(addr, 8)
		mm.Regs[vx.BP] = 8 // the epilogue pops from the guard page
	}})
	m.Run()
	return fault.Record{}
}

// TestRunnerOwnsTrialStartState: the runner, not the injector, puts the
// machine into the trial's start state and applies the budget — one Reset or
// one Restore per trial, pooled machines that crashed over stray stores
// included — and what it hands over is the golden run at the boundary it
// names. The anchors are captured once, on the machine the first trial
// already holds (a second one would be a second address space the process's
// pool keeps for good).
func TestRunnerOwnsTrialStartState(t *testing.T) {
	const trials = 24
	probe := &startStateProbe{ToolName: "START-STATE-PROBE", t: t, seen: map[*vm.Machine]bool{}}
	res, err := New(versionTestApp(), probe, WithTrials(trials), WithWorkers(1), WithCache(nil)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Crash != trials {
		t.Fatalf("probe trials did not all crash: %+v", res.Counts)
	}
	if probe.reused == 0 {
		t.Fatal("no trial ran on a pooled machine that had already crashed")
	}
	if probe.anchored == 0 || probe.reset == 0 {
		t.Fatalf("%d trials started from an anchor, %d from Reset: want both", probe.anchored, probe.reset)
	}
	if probe.replays != 1 || probe.replayed != probe.first {
		t.Fatalf("anchors captured by %d replays, on the first trial's machine: %v", probe.replays, probe.replayed == probe.first)
	}
}
