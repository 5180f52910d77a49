package campaign_test

// The fire-point differential suite: every binary-level injection carried by
// the fire-point index must be bit-identical — outcome, fault record,
// modeled cycles, trap and its message, dynamic instruction count, output,
// final memory — to the same injection on the counted reference carrier
// (pinfi.RunCounted), run on and single-stepped, across all 14 kernels
// and all four binary-level fault models (PINFI register flips, OPCODE /
// OPCODE-VALID opcode corruption, PINFI2 double flips). This is the
// acceptance bar for the hook-free trial path: the carrier changes how the
// injection point is reached, never what the experiment measures.

import (
	"bytes"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/multibit"
	"repro/internal/opcodefi"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// trialOutcome snapshots everything a campaign derives from a finished
// trial.
type trialOutcome struct {
	Rec        fault.Record
	Outcome    fault.Outcome
	Trap       vm.TrapKind
	TrapMsg    string
	ExitCode   int64
	InstrCount int64
	Cycles     int64
	Output     string
}

func finishTrial(m *vm.Machine, rec fault.Record, golden []uint64) trialOutcome {
	out := make([]byte, 0, len(m.Output)*8)
	for _, w := range m.Output {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return trialOutcome{
		Rec:        rec,
		Outcome:    fault.Classify(m, golden),
		Trap:       m.Trap,
		TrapMsg:    m.TrapMsg,
		ExitCode:   m.ExitCode,
		InstrCount: m.InstrCount,
		Cycles:     m.Cycles,
		Output:     string(out),
	}
}

// injection builds one fault model's injection callback and its undo.
type injection struct {
	name string
	make func(bin *campaign.Binary, costs pinfi.CostModel, target int64, rng *fault.RNG, rec *fault.Record) (inject vm.ExecHook, restore func())
}

func injections() []injection {
	none := func() {}
	opcode := func(name string, mode pinfi.OpcodeMode) injection {
		return injection{name, func(_ *campaign.Binary, _ pinfi.CostModel, target int64, rng *fault.RNG, rec *fault.Record) (vm.ExecHook, func()) {
			return pinfi.CorruptOpcode(target, mode, rng, rec)
		}}
	}
	return []injection{
		{"PINFI", func(_ *campaign.Binary, _ pinfi.CostModel, target int64, rng *fault.RNG, rec *fault.Record) (vm.ExecHook, func()) {
			return pinfi.Flip(target, rng, rec), none
		}},
		opcode("OPCODE", pinfi.OpcodeAny),
		opcode("OPCODE-VALID", pinfi.OpcodeValidOnly),
		{"PINFI2", func(bin *campaign.Binary, costs pinfi.CostModel, target int64, rng *fault.RNG, rec *fault.Record) (vm.ExecHook, func()) {
			return multibit.DoubleFlip(bin.TargetMap(), costs, target, rng, rec, func(*vm.Machine) {}), none
		}},
	}
}

// carriers are the ways an injection reaches its target occurrence: the
// production fire point, and the counted reference on both execution paths —
// a machine traced from the start runs stepped throughout.
var carriers = []struct {
	name             string
	counted, stepped bool
}{{"fired", false, false}, {"counted", true, false}, {"counted-stepped", true, true}}

// diffCarriers runs one trial of inj on every carrier and reports any
// divergence from the fired one, whose outcome it returns.
func diffCarriers(t *testing.T, bin *campaign.Binary, prof *campaign.Profile, inj injection, occ, budget int64, seed uint64) trialOutcome {
	t.Helper()
	costs := pinfi.DefaultCosts()
	var fired trialOutcome
	var firedMem []byte
	for _, c := range carriers {
		m := bin.NewMachine()
		m.Img = bin.AcquireImageClone() // opcode injections mutate in place
		m.Budget = budget
		if c.stepped {
			m.Trace = vm.NewTraceRing(1)
		}
		var rec fault.Record
		inject, restore := inj.make(bin, costs, occ, fault.NewRNG(seed), &rec)
		if c.counted {
			pinfi.RunCounted(m, bin.TargetMap(), costs, occ, inject)
		} else {
			pinfi.RunFired(m, bin.FirePoints(), costs, occ, inject)
		}
		restore()
		bin.ReleaseImageClone(m.Img)
		got := finishTrial(m, rec, prof.Golden)
		if firedMem == nil {
			fired, firedMem = got, m.Mem
			continue
		}
		if got != fired {
			t.Errorf("%s/%s occurrence %d budget %d: %s diverged from fired:\n%s: %+v\nfired: %+v",
				bin.App.Name, inj.name, occ, budget, c.name, c.name, got, fired)
		}
		if !bytes.Equal(m.Mem, firedMem) {
			t.Errorf("%s/%s occurrence %d budget %d: %s final memory diverged from fired",
				bin.App.Name, inj.name, occ, budget, c.name)
		}
	}
	return fired
}

// TestFiredTrialsMatchHookedReference runs the full 14-kernel × 4-model
// differential: for each kernel, the first, middle, last and two seeded
// random target occurrences, under the campaign's 10× budget. The full
// sweep takes tens of seconds; -short covers three representative kernels.
func TestFiredTrialsMatchHookedReference(t *testing.T) {
	apps := workloads.Registry()
	if testing.Short() {
		short := []string{"HPCCG", "FT", "DC"}
		apps = apps[:0]
		for _, name := range short {
			app, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, app)
		}
	}
	for _, app := range apps {
		bin, err := campaign.BuildBinary(app, campaign.PINFI, campaign.DefaultBuildOptions())
		if err != nil {
			t.Fatal(err)
		}
		prof, err := bin.RunProfile(pinfi.DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}
		if fps := bin.FirePoints(); fps.N != prof.Targets {
			t.Fatalf("%s: fire-point index N=%d != profiled targets %d", app.Name, fps.N, prof.Targets)
		}
		pick := fault.NewRNG(42)
		occs := []int64{0, prof.Targets / 2, prof.Targets - 1,
			pick.Intn(prof.Targets), pick.Intn(prof.Targets)}
		for _, inj := range injections() {
			for _, occ := range occs {
				diffCarriers(t, bin, prof, inj, occ, prof.Budget, uint64(occ)*2654435761+17)
			}
		}
	}
}

// TestFiredTrialBudgetSweep pins the fire/budget composition at the
// campaign layer for every fired model: budgets below, exactly on, and just
// past the injection index must reproduce the counted reference bit for bit
// (below: the injection never lands and the run times out; on: the fault
// injects during the last budgeted instruction's epilogue, then the machine
// times out — the paper's timeout classification still sees the fault).
func TestFiredTrialBudgetSweep(t *testing.T) {
	app, err := workloads.ByName("HPCCG")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := campaign.BuildBinary(app, campaign.PINFI, campaign.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	prof, err := bin.RunProfile(pinfi.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	occ := prof.Targets / 2
	at, _ := bin.FirePoints().Lookup(occ)

	for _, inj := range injections() {
		for _, budget := range []int64{at / 2, at - 1, at, at + 1, prof.Budget} {
			got := diffCarriers(t, bin, prof, inj, occ, budget, uint64(budget)^0x9E3779B9)
			if budget < at && got.Rec != (fault.Record{}) {
				t.Errorf("%s budget %d < fire index %d: injection landed anyway: %+v",
					inj.name, budget, at, got.Rec)
			}
			if budget <= at && got.Trap != vm.TrapTimeout {
				t.Errorf("%s budget %d <= fire index %d: want timeout, got trap=%v",
					inj.name, budget, at, got.Trap)
			}
		}
	}
}

// TestBinaryLevelBuildRunsOneGoldenPass: the observed golden pass that counts
// a binary-level tool's population also records its fire-point index, so a
// cold build+profile executes the program exactly once.
func TestBinaryLevelBuildRunsOneGoldenPass(t *testing.T) {
	app, err := workloads.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range []campaign.Tool{campaign.PINFI, opcodefi.Injector, opcodefi.ValidInjector, multibit.PINFI2Injector} {
		if u, ok := tool.(campaign.FirePointUser); !ok || !u.UsesFirePoints() {
			t.Fatalf("%s is not a FirePointUser", tool.Name())
		}
		cache := campaign.NewCache()
		bin, prof, err := cache.BuildAndProfile(app, tool, campaign.DefaultBuildOptions(), pinfi.DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}
		golden := prof.Budget / campaign.TimeoutFactor
		if got := cache.Phases().ProfileInstrs; got != golden {
			t.Errorf("%s: cold build+profile executed %d profiling instructions, the golden run has %d", tool.Name(), got, golden)
		}
		if fps := bin.FirePoints(); fps == nil || fps.N != prof.Targets {
			t.Errorf("%s: fire-point index %+v does not cover the %d profiled targets", tool.Name(), fps, prof.Targets)
		}
	}
}
