package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/vx"
)

// TestCollectorReentrantObserver pins the observer-delivery seam: the
// collector must invoke the user observer OUTSIDE its mutex, so a re-entrant
// observer — one that inspects delivered() (as a cancelling observer checking
// its partial prefix does) or enqueues follow-up work that lands back in the
// same collector — cannot self-deadlock. Pre-fix, collector.add held c.mu
// across the observer call and both re-entrant paths deadlocked.
func TestCollectorReentrantObserver(t *testing.T) {
	res, col := New(App{}, PINFI, WithTrials(4)).newResult(nil, nil)
	var order []int
	col.obs = func(i int, tr TrialResult) {
		order = append(order, i)
		// Re-entrant inspection: pre-fix this blocked on the mutex the
		// delivering goroutine already holds.
		if got := col.delivered(); got != i {
			t.Errorf("observer(%d): delivered() = %d, want %d (trials fully applied before this one)", i, got, i)
		}
		if i == 0 {
			// Re-entrant enqueue landing back in this collector: the current
			// deliverer must pick it up instead of deadlocking.
			col.add(3, TrialResult{Outcome: fault.Benign})
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		col.add(1, TrialResult{Outcome: fault.Benign})
		col.add(0, TrialResult{Outcome: fault.Benign})
		col.add(2, TrialResult{Outcome: fault.Benign})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("collector deadlocked delivering with a re-entrant observer")
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
	if got := col.delivered(); got != 4 {
		t.Fatalf("delivered() = %d, want 4", got)
	}
	if res.Counts.Benign != 4 {
		t.Fatalf("Counts.Benign = %d, want 4", res.Counts.Benign)
	}
}

// startStateProbe is an injector whose Trial never resets and never sets a
// budget: it checks the machine the runner hands it, then crashes it over
// dirtied memory, so the next trial on the pooled machine has something to
// be clean of.
type startStateProbe struct {
	ToolName
	BinaryLevel
	t *testing.T

	mu     sync.Mutex
	seen   map[*vm.Machine]bool
	reused int
}

func (p *startStateProbe) Trial(m *vm.Machine, b *Binary, prof *Profile, _ pinfi.CostModel, _ int64, _ *fault.RNG) fault.Record {
	fresh := b.NewMachine()
	if m.InstrCount != 0 || m.Budget != prof.Budget || m.Count != nil || m.FireArmed() ||
		m.Regs != fresh.Regs || m.PC != fresh.PC || !bytes.Equal(m.Mem, fresh.Mem) {
		p.t.Errorf("trial handed a machine off its start state: InstrCount=%d Budget=%d (want %d) observer=%v armed=%v, or registers/memory not pristine",
			m.InstrCount, m.Budget, prof.Budget, m.Count != nil, m.FireArmed())
	}
	p.mu.Lock()
	if p.seen[m] {
		p.reused++
	}
	p.seen[m] = true
	p.mu.Unlock()
	m.ArmFire(&vm.FirePoint{At: 20, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
		const addr = 1 << 20
		binary.LittleEndian.PutUint64(mm.Mem[addr:], 0xDEAD)
		mm.MarkMemWritten(addr, 8)
		mm.Regs[vx.BP] = 8 // the epilogue pops from the guard page
	}})
	m.Run()
	return fault.Record{}
}

// TestRunnerOwnsTrialStartState: the runner, not the injector, resets the
// machine and applies the budget — once per trial, pooled machines included.
func TestRunnerOwnsTrialStartState(t *testing.T) {
	const trials = 8
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
}
