package vm_test

// Differential tests for the fire-point seam: a FirePoint armed at absolute
// index At must be observationally identical — outcome, cycle accounting,
// trap, final register file — to a counted injection at the same dynamic
// target occurrence (pinfi.RunCounted without a cost model), on the fast
// loop, on a traced run's Step and on RunStepped, and
// it must compose with the caller budget in every order (fire before budget,
// budget before fire, both on the same instruction). Plus the machine-reuse
// hygiene the pool depends on: Reset must disarm a pending fire point and
// detach the trace ring, mirroring an early Budget+observer clearing bug.

import (
	"os"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/vm"
)

// fireEquivalents builds, for one occurrence index, the counted-reference
// run (occurrences counted by stepping, the injection at the occurrence) and
// the fire-point run (ArmFire at the recorded absolute index) over the same
// injection callback, and returns the final snapshots. Neither charges a
// cost model: the seam is the VM's, the cycles are the program's.
func fireEquivalents(t *testing.T, bin *campaign.Binary, fps *pinfi.FirePoints, occurrence int64, budget int64) (hooked, fired machineState) {
	t.Helper()
	inject := func(seed uint64) vm.ExecHook {
		rng := fault.NewRNG(seed)
		return func(mm *vm.Machine, pc int32, in *vm.Inst) {
			outs := in.Outs[:in.NOut]
			op, bit := fault.PickOperandAndBit(rng, outs)
			mm.FlipBit(outs[op], bit)
		}
	}

	hm := bin.NewMachine()
	hm.Budget = budget
	pinfi.RunCounted(hm, bin.TargetMap(), pinfi.CostModel{}, occurrence, inject(7))

	fm := bin.NewMachine()
	fm.Budget = budget
	at, pc := fps.Lookup(occurrence)
	fm.ArmFire(&vm.FirePoint{At: at, PC: pc, Fn: inject(7)})
	fm.Run()

	return snapshot(hm), snapshot(fm)
}

// TestFirePointMatchesCountHook holds the fire-point run to the counted
// reference across early, middle and late occurrences, with the campaign's
// 10× budget — the production shape of a binary-level trial.
func TestFirePointMatchesCountHook(t *testing.T) {
	for _, appName := range []string{"HPCCG", "FT", "DC"} {
		bin := buildBin(t, appName, campaign.PINFI)
		prof, err := bin.RunProfile(pinfi.DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}
		fps := bin.FirePoints()
		if fps.N != prof.Targets {
			t.Fatalf("%s: fire-point index has %d occurrences, profile counted %d", appName, fps.N, prof.Targets)
		}
		for _, occ := range []int64{0, 1, prof.Targets / 2, prof.Targets - 2, prof.Targets - 1} {
			if occ < 0 || occ >= prof.Targets {
				continue
			}
			hooked, fired := fireEquivalents(t, bin, fps, occ, prof.Budget)
			if !equalStates(hooked, fired) {
				t.Errorf("%s occurrence %d diverged:\nhooked: %+v\nfired:  %+v", appName, occ, hooked, fired)
			}
		}
	}
}

// TestFirePointBudgetInteraction sweeps the fire/budget orderings: a budget
// that expires before the fire index (the callback must never run), a
// budget landing exactly on the fire instruction (fire first, then timeout —
// the counted injection runs right behind the budgeted instruction), and a
// budget one past it.
func TestFirePointBudgetInteraction(t *testing.T) {
	bin := buildBin(t, "HPCCG", campaign.PINFI)
	prof, err := bin.RunProfile(pinfi.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	fps := bin.FirePoints()
	occ := prof.Targets / 2
	at, _ := fps.Lookup(occ)

	for _, tc := range []struct {
		name     string
		budget   int64
		wantFire bool
	}{
		{"budget-before-fire", at - 1, false},
		{"budget-well-before-fire", at / 2, false},
		{"budget-on-fire-instruction", at, true},
		{"budget-after-fire", at + 1, true},
	} {
		hooked, fired := fireEquivalents(t, bin, fps, occ, tc.budget)
		if !equalStates(hooked, fired) {
			t.Errorf("%s: diverged:\nhooked: %+v\nfired:  %+v", tc.name, hooked, fired)
		}

		// Independently pin the semantics (not just the equivalence): did
		// the callback run, and did the run time out?
		m := bin.NewMachine()
		m.Budget = tc.budget
		ran := false
		a, p := fps.Lookup(occ)
		m.ArmFire(&vm.FirePoint{At: a, PC: p, Fn: func(*vm.Machine, int32, *vm.Inst) { ran = true }})
		m.Run()
		if ran != tc.wantFire {
			t.Errorf("%s: callback ran=%v, want %v", tc.name, ran, tc.wantFire)
		}
		if m.Trap != vm.TrapTimeout || m.InstrCount != tc.budget {
			t.Errorf("%s: trap=%v InstrCount=%d, want timeout at exactly the budget", tc.name, m.Trap, m.InstrCount)
		}
	}
}

// TestFirePointLoopEquivalence services the same fire point three ways:
// production Run (hook-free fast loop), Run on a traced machine (Step
// throughout, the trace recorded), and RunStepped. Final states must be
// bit-identical.
func TestFirePointLoopEquivalence(t *testing.T) {
	bin := buildBin(t, "CG", campaign.PINFI)
	prof, err := bin.RunProfile(pinfi.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	fps := bin.FirePoints()
	occ := prof.Targets - 1
	at, pc := fps.Lookup(occ)

	run := func(mode string) machineState {
		m := bin.NewMachine()
		m.Budget = prof.Budget
		rng := fault.NewRNG(3)
		m.ArmFire(&vm.FirePoint{At: at, PC: pc, Fn: func(mm *vm.Machine, pc int32, in *vm.Inst) {
			outs := in.Outs[:in.NOut]
			op, bit := fault.PickOperandAndBit(rng, outs)
			mm.FlipBit(outs[op], bit)
		}})
		switch mode {
		case "fast":
			m.Run()
		case "traced":
			m.Trace = vm.NewTraceRing(8)
			m.Run()
		case "stepped":
			m.RunStepped()
		}
		return snapshot(m)
	}

	fast := run("fast")
	for _, mode := range []string{"traced", "stepped"} {
		if got := run(mode); !equalStates(fast, got) {
			t.Errorf("%s loop diverged from fast:\nfast: %+v\n%s: %+v", mode, fast, mode, got)
		}
	}
}

// TestFiredTrialRunsZeroHookedInstructions pins the property at the seam
// level: a fire-point trial on an untraced machine steps nothing — the
// prefix and the suffix run on the hook-free fast loop (Run steps only a
// machine traced from the start) — and the callback finds its fire point
// disarmed and no trace attached at the injection point.
func TestFiredTrialRunsZeroHookedInstructions(t *testing.T) {
	bin := buildBin(t, "HPCCG", campaign.PINFI)
	prof, err := bin.RunProfile(pinfi.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	fps := bin.FirePoints()
	at, pc := fps.Lookup(prof.Targets / 3)

	m := bin.NewMachine()
	m.Budget = prof.Budget
	fired := false
	m.ArmFire(&vm.FirePoint{At: at, PC: pc, Fn: func(mm *vm.Machine, _ int32, _ *vm.Inst) {
		fired = true
		if mm.Trace != nil {
			t.Error("trace attached at the injection point of a fire-point trial")
		}
		if mm.FireArmed() {
			t.Error("fire point still armed inside its own callback")
		}
	}})
	m.Run()
	if !fired {
		t.Fatal("fire point never serviced")
	}
	if m.Trace != nil || m.FireArmed() {
		t.Error("trace attached or fire point armed after a fire-point trial")
	}
}

// TestResetClearsFireAndTrace extends the machine-reuse hygiene contract
// (an early Budget+observer clearing bug) to the two per-run slots: a pooled machine must leak neither a pending fire
// point nor a trace ring into the next trial.
func TestResetClearsFireAndTrace(t *testing.T) {
	img := hostToggleProg(t)
	m := vm.New(img)
	m.ArmFire(&vm.FirePoint{At: 1 << 40})
	m.Trace = vm.NewTraceRing(8)
	m.Reset()
	if m.FireArmed() {
		t.Fatal("Reset left a fire point armed")
	}
	if m.Trace != nil {
		t.Fatal("Reset left the trace ring attached")
	}
	// And the settled/serviced fire must not leak cycle charges across runs:
	// a fresh run after Reset matches a machine that never armed anything.
	m.Run()
	clean := snapshot(m)
	m2 := vm.New(img)
	m2.Run()
	if !equalStates(clean, snapshot(m2)) {
		t.Fatalf("run after Reset diverged from a fresh machine:\nreused: %+v\nfresh:  %+v", clean, snapshot(m2))
	}
}

// TestPooledMachineNoFireLeak mirrors the pool-hygiene contract one level
// up: a trial that arms a fire point and times out before it services must
// not hand the next AcquireMachine caller an armed machine.
func TestPooledMachineNoFireLeak(t *testing.T) {
	bin := buildBin(t, "EP", campaign.PINFI)
	prof, err := bin.RunProfile(pinfi.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	fps := bin.FirePoints()
	at, pc := fps.Lookup(prof.Targets - 1)

	m := bin.AcquireMachine()
	m.Budget = at / 2 // times out long before the fire index
	m.ArmFire(&vm.FirePoint{At: at, PC: pc, Fn: func(*vm.Machine, int32, *vm.Inst) {
		t.Error("fire point serviced past the budget")
	}})
	m.Run()
	if m.Trap != vm.TrapTimeout {
		t.Fatalf("want timeout, got %v", m.Trap)
	}
	bin.ReleaseMachine(m)

	m2 := bin.AcquireMachine()
	defer bin.ReleaseMachine(m2)
	if m2.FireArmed() {
		t.Fatal("AcquireMachine returned a machine with a leaked fire point")
	}
	if m2.Budget != 0 || m2.Trace != nil {
		t.Fatal("AcquireMachine returned a machine with leaked per-run state")
	}
}

// TestTrialFastSpeedGate is the CI bench-smoke gate for the fire-point
// rung: a binary-level trial on the fired carrier (pinfi.RunFired) must be
// at least 1.2× faster than the same trial on the counted reference carrier
// (pinfi.RunCounted), whose pre-injection prefix is stepped. The
// target is the last dynamic occurrence, so the counted prefix spans
// (almost) the whole run — the shape that dominates a campaign's trial
// phase. Measured 4.8–5.5× on a 2-core box since the fast loop charges a
// straight-line run once (3.8–3.9× before, 1.3–1.8× while the counted
// prefix had a predecoded loop of its own); 1.2× leaves headroom for noisy
// shared runners.
func TestTrialFastSpeedGate(t *testing.T) {
	if os.Getenv("TRIAL_SPEED_GATE") == "" {
		t.Skip("wall-clock gate: set TRIAL_SPEED_GATE=1 to run (the dedicated CI step does); skipped by default so loaded machines can't flake the plain suite")
	}
	bin := buildBin(t, "HPCCG", campaign.PINFI)
	costs := pinfi.DefaultCosts()
	prof, err := bin.RunProfile(costs)
	if err != nil {
		t.Fatal(err)
	}
	fps := bin.FirePoints()
	target := prof.Targets - 1 // maximize the counted prefix

	once := func(fired bool) time.Duration {
		m := bin.NewMachine()
		m.Budget = prof.Budget
		inject := pinfi.Flip(target, fault.NewRNG(9), new(fault.Record))
		start := time.Now()
		if fired {
			pinfi.RunFired(m, fps, costs, target, inject)
		} else {
			pinfi.RunCounted(m, bin.TargetMap(), costs, target, inject)
		}
		return time.Since(start)
	}
	// Best of nine, interleaved: a shared box's slow phases outlast a run,
	// so both sides must get to sample the fast ones.
	fast, ref := time.Duration(1<<62), time.Duration(1<<62)
	for rep := 0; rep < 9; rep++ {
		fast, ref = min(fast, once(true)), min(ref, once(false))
	}
	if ratio := float64(ref) / float64(fast); ratio < 1.2 {
		t.Errorf("fire-point trial only %.2fx over the counted reference trial (counted %v, fired %v); want >= 1.2x",
			ratio, ref, fast)
	} else {
		t.Logf("fire-point trial %.2fx over the counted reference trial (counted %v, fired %v)", ratio, ref, fast)
	}
}
