package campaign_test

// The prefix-anchor differential suite: a trial started from a memoized
// snapshot of the golden run must be bit-identical — outcome, fault record,
// modeled cycles, trap and its message, exit code, dynamic instruction
// count, output, registers and final memory — to the same trial started from
// Reset, for every registered tool on all 14 kernels. The start state changes
// how much of the golden prefix a trial executes, never what the experiment
// measures.

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/ir"
	"repro/internal/multibit"
	"repro/internal/opcodefi"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// everyTool is the registry as the drivers link it.
var everyTool = []campaign.Tool{
	campaign.LLFI, campaign.REFINE, multibit.Injector,
	campaign.PINFI, opcodefi.Injector, opcodefi.ValidInjector, multibit.PINFI2Injector,
}

func appsByName(t *testing.T, names ...string) []campaign.App {
	t.Helper()
	var apps []campaign.App
	for _, name := range names {
		app, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	return apps
}

// TestAnchoredTrialsMatchResetStarted sweeps, per kernel and tool, the first
// and last target and the targets exactly at, one before and one after every
// anchor — the three places the cycle accounting can be off by one
// instruction's observer cost or one library call: one before an anchor the
// previous anchor (or Reset) serves, at and after it the anchor itself. Each
// pair of trials reuses its machine, so every start state also follows a
// finished, often crashed, trial on the same machine.
func TestAnchoredTrialsMatchResetStarted(t *testing.T) {
	apps := workloads.Registry()
	if testing.Short() {
		apps = appsByName(t, "HPCCG", "FT", "DC")
	}
	costs := pinfi.DefaultCosts()
	for _, app := range apps {
		for _, tool := range everyTool {
			bin, err := campaign.BuildBinary(app, tool, campaign.DefaultBuildOptions())
			if err != nil {
				t.Fatal(err)
			}
			prof, err := bin.RunProfile(costs)
			if err != nil {
				t.Fatal(err)
			}
			anchored, reset := bin.NewMachine(), bin.NewMachine()
			dyns := bin.AnchorDyns(anchored, prof)
			if len(dyns) == 0 {
				t.Errorf("%s/%s: no anchors", app.Name, tool.Name())
			}
			targets := []int64{0, prof.Targets - 1}
			for _, dyn := range dyns {
				targets = append(targets, dyn-1, dyn, min(dyn+1, prof.Targets-1))
			}
			for _, target := range targets {
				seed := uint64(target)*2654435761 + 17
				got := bin.TrialAt(anchored, prof, costs, target, seed, true)
				want := bin.TrialAt(reset, prof, costs, target, seed, false)
				if got != want {
					t.Errorf("%s/%s target %d: anchored trial diverged from the reset-started one:\nanchored: %+v\nreset:    %+v",
						app.Name, tool.Name(), target, got, want)
				}
				if anchored.TrapMsg != reset.TrapMsg || anchored.ExitCode != reset.ExitCode ||
					anchored.PC != reset.PC || anchored.Regs != reset.Regs {
					t.Errorf("%s/%s target %d: final machine diverged: trap %q vs %q, exit %d vs %d, pc %d vs %d, or registers",
						app.Name, tool.Name(), target, anchored.TrapMsg, reset.TrapMsg,
						anchored.ExitCode, reset.ExitCode, anchored.PC, reset.PC)
				}
				if !slices.Equal(anchored.Output, reset.Output) {
					t.Errorf("%s/%s target %d: output diverged", app.Name, tool.Name(), target)
				}
				if !bytes.Equal(anchored.Mem, reset.Mem) {
					t.Errorf("%s/%s target %d: final memory diverged", app.Name, tool.Name(), target)
				}
			}
		}
	}
}

// TestSharedBuildInterleavesFaultModels is the hygiene the shared build
// depends on: the four binary-level tools hold one build, so one pooled
// machine serves an OPCODE trial (private image clone swapped in and out),
// then a PINFI2 trial (counting observer attached mid-run), then PINFI, then
// OPCODE-VALID, over the same anchors. Each must be the trial a fresh machine
// of the tool's own private build runs from Reset, Cycles included, and must
// hand the machine back on the shared image with nothing armed — the rows
// include an OPCODE trial that traps on its corrupted opcode and a PINFI2
// trial on the last target, whose second flip never lands and whose observer
// is still attached when the run ends.
func TestSharedBuildInterleavesFaultModels(t *testing.T) {
	app := appsByName(t, "HPCCG")[0]
	costs := pinfi.DefaultCosts()
	cache := campaign.NewCache()
	order := []campaign.Tool{opcodefi.Injector, multibit.PINFI2Injector, campaign.PINFI, opcodefi.ValidInjector}
	var m *vm.Machine
	var illegal, unlanded bool
	for i, seed := range []uint64{2, 40, 4, 6, 11, 5, 17, 30, 7, 34, 21, 13} {
		tool := order[i%len(order)]
		shared, prof, err := cache.BuildAndProfile(app, tool, campaign.DefaultBuildOptions(), costs)
		if err != nil {
			t.Fatal(err)
		}
		private, err := campaign.BuildBinary(app, tool, campaign.DefaultBuildOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := private.RunProfile(costs); err != nil {
			t.Fatal(err)
		}
		if m == nil {
			m = shared.AcquireMachine()
			defer shared.ReleaseMachine(m)
		}
		// Row i is tool i mod 4 against target seed/41 of the population,
		// except PINFI2's seed 40: the last target, with nothing after it for
		// a second flip to land on.
		target := int64(seed) * prof.Targets / 41
		lastTarget := tool == multibit.PINFI2Injector && seed == 40
		if lastTarget {
			target = prof.Targets - 1
		}
		got := shared.TrialAt(m, prof, costs, target, seed, true)
		want := private.TrialAt(private.NewMachine(), prof, costs, target, seed, false)
		if got != want {
			t.Errorf("%s target %d on the shared build's pooled machine diverged from a fresh private build:\nshared:  %+v\nprivate: %+v",
				tool.Name(), target, got, want)
		}
		if m.Img != shared.Img || m.FireArmed() || (m.Count != nil) != lastTarget {
			t.Errorf("%s target %d left the pooled machine on image %p (shared %p), armed=%v, observer=%v",
				tool.Name(), target, m.Img, shared.Img, m.FireArmed(), m.Count != nil)
		}
		illegal = illegal || tool == opcodefi.Injector && got.Trap == vm.TrapIllegal
		unlanded = unlanded || lastTarget
	}
	if !illegal || !unlanded {
		t.Errorf("rows no longer cover an OPCODE trial trapping on its opcode (%v) and a PINFI2 second flip that never lands (%v)", illegal, unlanded)
	}
	if st := cache.Stats(); st.Builds != 1 || cache.Len() != 1 {
		t.Errorf("four binary-level tools made %d builds in %d entries, want one shared build", st.Builds, cache.Len())
	}
}

// TestAnchorsSkipTheGoldenPrefix is the machine-independent gate on what the
// anchors are for: over the same 3 kernels × 64 trials per tool, the
// instructions trials execute are at most 70 % of the instructions their
// runs consist of (measured: PINFI 0.60, REFINE 0.50, LLFI 0.48), executed
// and skipped add up to Σ TrialResult.Instrs, and the counts repeat bit for
// bit on fresh binaries.
func TestAnchorsSkipTheGoldenPrefix(t *testing.T) {
	apps := appsByName(t, "CG", "FT", "DC")
	for _, tool := range []campaign.Tool{campaign.PINFI, campaign.REFINE, campaign.LLFI} {
		measure := func() (executed, instrs int64) {
			before := campaign.ReadPhaseStats()
			for _, app := range apps {
				_, err := campaign.New(app, tool, campaign.WithTrials(64), campaign.WithSeed(1),
					campaign.WithWorkers(1), campaign.WithCache(nil),
					campaign.WithObserver(func(_ int, tr campaign.TrialResult) { instrs += tr.Instrs }),
				).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
			}
			after := campaign.ReadPhaseStats()
			executed = after.TrialInstrs - before.TrialInstrs
			if skipped := after.TrialSkipped - before.TrialSkipped; executed+skipped != instrs {
				t.Errorf("%s: executed %d + skipped %d != Σ Instrs %d", tool.Name(), executed, skipped, instrs)
			}
			return executed, instrs
		}
		executed, instrs := measure()
		if e2, i2 := measure(); e2 != executed || i2 != instrs {
			t.Errorf("%s: counts do not repeat: executed %d then %d, Σ Instrs %d then %d", tool.Name(), executed, e2, instrs, i2)
		}
		ratio := float64(executed) / float64(instrs)
		if ratio > 0.70 {
			t.Errorf("%s: trials executed %.3f of their instructions (%d of %d); want <= 0.70 — is an anchor not being used?",
				tool.Name(), ratio, executed, instrs)
		}
		t.Logf("%s: executed/Instrs = %d/%d = %.4f", tool.Name(), executed, instrs, ratio)
	}
}

// TestFirstTrialCaptureRace: the workers of a cold campaign race to the
// binary's first trial, one of them captures the anchors on its own machine
// while the rest wait, and the stream is the serial campaign's. Run under
// -race.
func TestFirstTrialCaptureRace(t *testing.T) {
	app := appsByName(t, "EP")[0]
	for _, tool := range []campaign.Tool{campaign.PINFI, campaign.REFINE, campaign.LLFI} {
		run := func(workers int) []campaign.TrialResult {
			res, err := campaign.New(app, tool, campaign.WithTrials(48), campaign.WithSeed(9),
				campaign.WithWorkers(workers), campaign.WithCache(nil), campaign.WithRecords(),
			).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return res.Records
		}
		serial := run(1)
		for round := 0; round < 3; round++ {
			if got := run(8); !slices.Equal(got, serial) {
				t.Fatalf("%s: 8 workers racing the first-trial capture diverged from the serial campaign", tool.Name())
			}
		}
	}
}

// bigFootprintApp carries more initialized data than a binary's anchors may
// retain: every snapshot of its run holds all of it.
func bigFootprintApp() campaign.App {
	return campaign.App{Name: "anchor-cap-probe", Build: func() *ir.Module {
		m := ir.NewModule("anchor-cap-probe")
		m.DeclareHost(ir.HostDecl{Name: "out_i64", Params: []ir.Type{ir.I64}, Ret: ir.I64})
		m.AddGlobal(ir.Global{Name: "big", Size: 5 << 18, Init: bytes.Repeat([]byte{0xA5}, 5<<18)})
		b := ir.NewBuilder(m)
		b.NewFunc("main", ir.I64)
		acc := b.NewVar(ir.I64, b.ConstI(0))
		b.Loop(b.ConstI(0), b.ConstI(4096), b.ConstI(1), func(i *ir.Value) {
			acc.Set(b.Add(acc.Get(), b.Load(ir.I64, b.Index(b.GlobalAddr("big"), i))))
		})
		b.Call("out_i64", acc.Get())
		b.Ret(b.ConstI(0))
		return m
	}}
}

// TestAnchorByteCap: a binary whose first snapshot alone exceeds the cap
// keeps no anchor, and its trials — all of them on the Reset branch — are
// what they are for any other binary.
func TestAnchorByteCap(t *testing.T) {
	bin, err := campaign.BuildBinary(bigFootprintApp(), campaign.PINFI, campaign.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	costs := pinfi.DefaultCosts()
	prof, err := bin.RunProfile(costs)
	if err != nil {
		t.Fatal(err)
	}
	m := bin.NewMachine()
	if dyns := bin.AnchorDyns(m, prof); len(dyns) != 0 {
		t.Fatalf("binary with 1.25 MiB of initialized data kept anchors at %v", dyns)
	}
	before := campaign.ReadPhaseStats().TrialSkipped
	ref := bin.NewMachine()
	for seed := uint64(1); seed <= 8; seed++ {
		target := int64(seed) * prof.Targets / 9
		if got, want := bin.TrialAt(m, prof, costs, target, seed, true), bin.TrialAt(ref, prof, costs, target, seed, false); got != want {
			t.Errorf("target %d: %+v, reset-started %+v", target, got, want)
		}
	}
	if skipped := campaign.ReadPhaseStats().TrialSkipped - before; skipped != 0 {
		t.Errorf("trials without an anchor skipped %d instructions", skipped)
	}
}

// TestPhaseStatsSplitByTool: the trial counters are kept per tool name — one
// campaign moves its own tool's row by exactly its trials and its
// instructions, nobody else's — and the totals are the sum of the rows.
func TestPhaseStatsSplitByTool(t *testing.T) {
	app := appsByName(t, "CG")[0]
	for _, tool := range []campaign.Tool{campaign.PINFI, campaign.REFINE} {
		before := campaign.ReadPhaseStats()
		var instrs int64
		_, err := campaign.New(app, tool, campaign.WithTrials(8), campaign.WithSeed(1),
			campaign.WithWorkers(1), campaign.WithCache(nil),
			campaign.WithObserver(func(_ int, tr campaign.TrialResult) { instrs += tr.Instrs }),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		after := campaign.ReadPhaseStats()
		var sum campaign.TrialPhase
		for name, row := range after.TrialByTool {
			was := before.TrialByTool[name]
			if name != tool.Name() && row != was {
				t.Errorf("a %s campaign moved %s's counters: %+v → %+v", tool.Name(), name, was, row)
			}
			sum.Instrs += row.Instrs
			sum.Skipped += row.Skipped
			sum.Nanos += row.Nanos
		}
		row, was := after.TrialByTool[tool.Name()], before.TrialByTool[tool.Name()]
		if row.Trials-was.Trials != 8 || row.Instrs-was.Instrs+row.Skipped-was.Skipped != instrs || row.Nanos <= was.Nanos {
			t.Errorf("%s: row %+v → %+v over 8 trials of %d instructions", tool.Name(), was, row, instrs)
		}
		if sum.Instrs != after.TrialInstrs || sum.Skipped != after.TrialSkipped || sum.Nanos != after.TrialNanos {
			t.Errorf("%s: totals %d/%d/%d are not the sum of the rows %+v", tool.Name(), after.TrialInstrs, after.TrialSkipped, after.TrialNanos, sum)
		}
	}
}
