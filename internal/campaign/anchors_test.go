package campaign_test

// The anchor differential suite. A trial started from a memoized snapshot of
// the golden run must be bit-identical — outcome, fault record, modeled
// cycles, trap and its message, exit code, dynamic instruction count, output,
// registers and final memory — to the same trial started from Reset, and a
// trial finished at a later snapshot it has rejoined the golden run at must
// return the TrialResult of the same trial run to its end, for every
// registered tool on all 14 kernels. Anchors change how much of the golden
// run a trial executes, never what the experiment measures.

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
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
				got := bin.TrialAt(anchored, prof, costs, target, fault.NewRNG(seed), campaign.FromAnchor)
				want := bin.TrialAt(reset, prof, costs, target, fault.NewRNG(seed), campaign.FromReset)
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

// rejoinedBy reads how many of a tool's trials on the cache's binaries have
// been finished at an anchor so far.
func rejoinedBy(cache *campaign.Cache, tool campaign.Tool) int64 {
	return cache.Phases().TrialByTool[tool.Name()].Rejoined
}

// TestRejoinedTrialsMatchUnpruned is the tail-pruning differential: per
// kernel and tool, the campaign's own first 64 trials (seed 1) as the runner
// runs them — finished at the first anchor behind the fault whose state they
// equal — against the same trials run to their end. No mismatch is
// tolerated and there is no allow-list. All the pruned trials of a cell
// share one machine with the trials around them, so each also follows a
// machine halted in mid-run; it must come back on the shared image with
// nothing armed. OPCODE's fault lives in its image clone, which no snapshot
// holds, so it is never pruned; neither is a PINFI2 trial whose second flip
// has not landed, its instrumentation observing and charging to the end.
func TestRejoinedTrialsMatchUnpruned(t *testing.T) {
	apps := workloads.Registry()
	if testing.Short() {
		apps = appsByName(t, "HPCCG", "FT", "DC")
	}
	costs := pinfi.DefaultCosts()
	const trials = 64
	var unlanded int
	for _, tool := range everyTool {
		cache := campaign.NewCache()
		var benign int
		for _, app := range apps {
			bin, prof, err := cache.BuildAndProfile(app, tool, campaign.DefaultBuildOptions(), costs)
			if err != nil {
				t.Fatal(err)
			}
			pruned, full := bin.NewMachine(), bin.NewMachine()
			for i := 0; i < trials; i++ {
				trial := func(m *vm.Machine, how campaign.Start) campaign.TrialResult {
					rng := fault.NewRNG(campaign.TrialSeed(1, tool, i))
					target := rng.Intn(prof.Targets) // the runner's draw
					return bin.TrialAt(m, prof, costs, target, rng, how)
				}
				was := rejoinedBy(cache, tool)
				got, want := trial(pruned, campaign.AsRun), trial(full, campaign.FromAnchor)
				if got != want {
					t.Errorf("%s/%s trial %d: finished at an anchor it is not the trial run to its end:\npruned:   %+v\nunpruned: %+v",
						app.Name, tool.Name(), i, got, want)
				}
				if pruned.Img != bin.Img || pruned.FireArmed() {
					t.Errorf("%s/%s trial %d: machine handed back on image %p (binary's %p), armed=%v",
						app.Name, tool.Name(), i, pruned.Img, bin.Img, pruned.FireArmed())
				}
				if tool == multibit.PINFI2Injector && !secondFlipLands(bin, prof, costs, i) {
					unlanded++
					if rejoinedBy(cache, tool) != was {
						t.Errorf("%s/%s trial %d: finished at an anchor with its second flip unlanded", app.Name, tool.Name(), i)
					}
				}
				if want.Outcome == fault.Benign {
					benign++
				}
			}
		}
		n := rejoinedBy(cache, tool)
		t.Logf("%-12s %d trials, %d benign, %d finished at an anchor", tool.Name(), trials*len(apps), benign, n)
		if never := tool == opcodefi.Injector || tool == opcodefi.ValidInjector; never != (n == 0) {
			t.Errorf("%s: %d trials finished at an anchor (OPCODE and OPCODE-VALID never are, the others must be)", tool.Name(), n)
		}
	}
	if unlanded == 0 {
		t.Error("no PINFI2 trial ended with its second flip unlanded: the still-observing row is gone")
	}
}

// secondFlipLands runs PINFI2's trial i of the seed-1 campaign from Reset on
// its own machine and reports whether the trial's second flip lands.
func secondFlipLands(bin *campaign.Binary, prof *campaign.Profile, costs pinfi.CostModel, i int) bool {
	rng := fault.NewRNG(campaign.TrialSeed(1, multibit.PINFI2Injector, i))
	target := rng.Intn(prof.Targets)
	m := bin.NewMachine()
	m.Budget = prof.Budget
	landed := false
	pinfi.RunFired(m, bin.FirePoints(), costs, target,
		multibit.DoubleFlip(bin.TargetMap(), costs, target, rng, new(fault.Record), func(*vm.Machine) { landed = true }))
	return landed
}

// TestRejoinedTrialRespectsBudget: a trial that has rejoined the golden run
// is finished there only if its whole length fits the budget. A rejoined
// REFINE trial is the golden run plus the instructions of its triggered
// site, so under a budget of exactly the golden length it is left to run and
// times out, as it always did; under the profile's budget it is pruned.
func TestRejoinedTrialRespectsBudget(t *testing.T) {
	cache, costs := campaign.NewCache(), pinfi.DefaultCosts()
	bin, prof, err := cache.BuildAndProfile(appsByName(t, "CG")[0], campaign.REFINE, campaign.DefaultBuildOptions(), costs)
	if err != nil {
		t.Fatal(err)
	}
	tight := *prof
	tight.Budget = prof.Budget / campaign.TimeoutFactor
	m, ref := bin.NewMachine(), bin.NewMachine()
	for seed := uint64(1); ; seed++ {
		if seed > 64 {
			t.Fatal("no REFINE trial of 64 rejoined the golden run")
		}
		target := int64(seed) * prof.Targets / 65
		was := rejoinedBy(cache, campaign.REFINE)
		if bin.TrialAt(m, prof, costs, target, fault.NewRNG(seed), campaign.AsRun); rejoinedBy(cache, campaign.REFINE) == was {
			continue
		}
		got := bin.TrialAt(m, &tight, costs, target, fault.NewRNG(seed), campaign.AsRun)
		want := bin.TrialAt(ref, &tight, costs, target, fault.NewRNG(seed), campaign.FromAnchor)
		if got != want || got.Trap != vm.TrapTimeout || rejoinedBy(cache, campaign.REFINE) != was+1 {
			t.Errorf("target %d under a budget of the golden length: %+v, run to its end %+v; want the same timeout, not pruned", target, got, want)
		}
		return
	}
}

// TestSharedBuildInterleavesFaultModels is the hygiene the shared build
// depends on: the four binary-level tools hold one build, so one pooled
// machine serves an OPCODE trial (private image clone swapped in and out),
// then a PINFI2 trial (stepped by its instrumentation mid-run), then PINFI,
// then OPCODE-VALID, over the same anchors. Each must be the trial a fresh
// machine of the tool's own private build runs from Reset, Cycles included,
// and must hand the machine back on the shared image with nothing armed —
// the rows include an OPCODE trial that traps on its corrupted opcode, a
// PINFI2 trial on the last target, whose second flip never lands and whose
// instrumentation observes to the end of the run, and trials finished at an
// anchor, which hand the next row a machine halted in mid-run.
func TestSharedBuildInterleavesFaultModels(t *testing.T) {
	app := appsByName(t, "HPCCG")[0]
	costs := pinfi.DefaultCosts()
	cache := campaign.NewCache()
	order := []campaign.Tool{opcodefi.Injector, multibit.PINFI2Injector, campaign.PINFI, opcodefi.ValidInjector}
	var m *vm.Machine
	var illegal, unlanded bool
	var rejoined int64
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
		rejoined -= rejoinedBy(cache, tool)
		got := shared.TrialAt(m, prof, costs, target, fault.NewRNG(seed), campaign.AsRun)
		rejoined += rejoinedBy(cache, tool)
		want := private.TrialAt(private.NewMachine(), prof, costs, target, fault.NewRNG(seed), campaign.FromReset)
		if got != want {
			t.Errorf("%s target %d on the shared build's pooled machine diverged from a fresh private build:\nshared:  %+v\nprivate: %+v",
				tool.Name(), target, got, want)
		}
		if m.Img != shared.Img || m.FireArmed() {
			t.Errorf("%s target %d left the pooled machine on image %p (shared %p), armed=%v",
				tool.Name(), target, m.Img, shared.Img, m.FireArmed())
		}
		illegal = illegal || tool == opcodefi.Injector && got.Trap == vm.TrapIllegal
		unlanded = unlanded || lastTarget
	}
	if !illegal || !unlanded || rejoined == 0 {
		t.Errorf("rows no longer cover an OPCODE trial trapping on its opcode (%v), a PINFI2 second flip that never lands (%v) and a trial finished at an anchor (%d)", illegal, unlanded, rejoined)
	}
	if st := cache.Stats(); st.Builds != 1 || cache.Len() != 1 {
		t.Errorf("four binary-level tools made %d builds in %d entries, want one shared build", st.Builds, cache.Len())
	}
}

// TestAnchorsSkipTheGoldenPrefix is the machine-independent gate on what the
// anchors are for: over the same 3 kernels × 64 trials per tool, the
// instructions trials execute and the trials finished at an anchor are exact
// counts — any change to them is a change to where anchors sit or to when a
// trial counts as rejoined, and belongs in the diff — executed, skipped and
// pruned add up to Σ TrialResult.Instrs, and everything repeats bit for bit
// on fresh binaries. Before tail pruning the executed shares were 0.600,
// 0.500 and 0.480.
func TestAnchorsSkipTheGoldenPrefix(t *testing.T) {
	apps := appsByName(t, "CG", "FT", "DC")
	type counts struct{ executed, instrs, rejoined int64 }
	for _, row := range []struct {
		tool campaign.Tool
		want counts
	}{
		{campaign.PINFI, counts{8174444, 16924384, 53}},
		{campaign.REFINE, counts{84769541, 202136493, 37}},
		{campaign.LLFI, counts{21893409, 52217379, 22}},
	} {
		tool := row.tool
		measure := func() (c counts) {
			cache := campaign.NewCache()
			for _, app := range apps {
				_, err := campaign.New(app, tool, campaign.WithTrials(64), campaign.WithSeed(1),
					campaign.WithWorkers(1), campaign.WithCache(cache),
					campaign.WithObserver(func(_ int, tr campaign.TrialResult) { c.instrs += tr.Instrs }),
				).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
			}
			ps := cache.Phases().Trials()
			c.executed, c.rejoined = ps.Instrs, ps.Rejoined
			if c.executed+ps.Skipped+ps.Pruned != c.instrs {
				t.Errorf("%s: executed %d + skipped %d + pruned %d != Σ Instrs %d", tool.Name(), c.executed, ps.Skipped, ps.Pruned, c.instrs)
			}
			return c
		}
		got := measure()
		if again := measure(); again != got {
			t.Errorf("%s: counts do not repeat: %+v then %+v", tool.Name(), got, again)
		}
		if got != row.want {
			t.Errorf("%s: %+v, want %+v — is an anchor not being used, or a rejoined trial run to its end?", tool.Name(), got, row.want)
		}
		t.Logf("%s: executed/Instrs = %d/%d = %.4f, %d of 192 trials finished at an anchor",
			tool.Name(), got.executed, got.instrs, float64(got.executed)/float64(got.instrs), got.rejoined)
	}
}

// TestFirstTrialCaptureRace: the workers of a cold campaign race to the
// binary's first trial, one of them captures the anchors on its own machine
// while the rest wait, and the stream is the serial campaign's. Run under
// -race.
func TestFirstTrialCaptureRace(t *testing.T) {
	app := appsByName(t, "EP")[0]
	for _, tool := range []campaign.Tool{campaign.PINFI, campaign.REFINE, campaign.LLFI} {
		run := func(workers int) (trs []campaign.TrialResult) {
			_, err := campaign.New(app, tool, campaign.WithTrials(48), campaign.WithSeed(9),
				campaign.WithWorkers(workers), campaign.WithCache(nil),
				campaign.WithObserver(func(_ int, tr campaign.TrialResult) { trs = append(trs, tr) }),
			).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return trs
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
	cache, costs := campaign.NewCache(), pinfi.DefaultCosts()
	bin, prof, err := cache.BuildAndProfile(bigFootprintApp(), campaign.PINFI, campaign.DefaultBuildOptions(), costs)
	if err != nil {
		t.Fatal(err)
	}
	m := bin.NewMachine()
	if dyns := bin.AnchorDyns(m, prof); len(dyns) != 0 {
		t.Fatalf("binary with 1.25 MiB of initialized data kept anchors at %v", dyns)
	}
	ref := bin.NewMachine()
	for seed := uint64(1); seed <= 8; seed++ {
		target := int64(seed) * prof.Targets / 9
		if got, want := bin.TrialAt(m, prof, costs, target, fault.NewRNG(seed), campaign.AsRun), bin.TrialAt(ref, prof, costs, target, fault.NewRNG(seed), campaign.FromReset); got != want {
			t.Errorf("target %d: %+v, reset-started %+v", target, got, want)
		}
	}
	if skipped := cache.Phases().Trials().Skipped; skipped != 0 {
		t.Errorf("trials without an anchor skipped %d instructions", skipped)
	}
}

// TestPhaseStatsSplitByTool: a cache keeps the trial counters per tool name
// — one campaign moves its own tool's row by exactly its trials and its
// instructions, nobody else's.
func TestPhaseStatsSplitByTool(t *testing.T) {
	app := appsByName(t, "CG")[0]
	cache := campaign.NewCache()
	for _, tool := range []campaign.Tool{campaign.PINFI, campaign.REFINE} {
		before := cache.Phases()
		var instrs int64
		_, err := campaign.New(app, tool, campaign.WithTrials(8), campaign.WithSeed(1),
			campaign.WithWorkers(1), campaign.WithCache(cache),
			campaign.WithObserver(func(_ int, tr campaign.TrialResult) { instrs += tr.Instrs }),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		after := cache.Phases()
		for name, row := range after.TrialByTool {
			if was := before.TrialByTool[name]; name != tool.Name() && row != was {
				t.Errorf("a %s campaign moved %s's counters: %+v → %+v", tool.Name(), name, was, row)
			}
		}
		row, was := after.TrialByTool[tool.Name()], before.TrialByTool[tool.Name()]
		if row.Trials-was.Trials != 8 || row.Instrs-was.Instrs+row.Skipped-was.Skipped+row.Pruned-was.Pruned != instrs || row.Nanos <= was.Nanos {
			t.Errorf("%s: row %+v → %+v over 8 trials of %d instructions", tool.Name(), was, row, instrs)
		}
		if rejoined := row.Rejoined - was.Rejoined; rejoined == 0 || rejoined == 8 || row.Pruned == was.Pruned {
			t.Errorf("%s: %d of 8 trials finished at an anchor, %d instructions pruned; want some and not all", tool.Name(), rejoined, row.Pruned-was.Pruned)
		}
	}
}
