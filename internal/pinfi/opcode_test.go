package pinfi_test

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/pinfi"
	"repro/internal/vm"
)

// opcodeTrial runs one opcode-corruption trial on the production carrier and
// restores the image.
func opcodeTrial(m *vm.Machine, fps *pinfi.FirePoints, target int64, mode pinfi.OpcodeMode, rng *fault.RNG) fault.Record {
	var rec fault.Record
	inject, restore := pinfi.CorruptOpcode(target, mode, rng, &rec)
	pinfi.RunFired(m, fps, pinfi.DefaultCosts(), target, inject)
	restore()
	return rec
}

func TestOpcodeTrialRestoresImage(t *testing.T) {
	img := buildImage(t)
	saved := make([]vm.Inst, len(img.Instrs))
	copy(saved, img.Instrs)

	m, fps, _ := profile(img)
	targets := fps.N
	mt := newMachine(img)
	mt.Budget = m.InstrCount * 10
	rec := opcodeTrial(mt, fps, targets/2, pinfi.OpcodeAny, fault.NewRNG(11))
	if rec.Op == "" || !strings.Contains(rec.Op, "->") {
		t.Fatalf("no opcode transition recorded: %+v", rec)
	}
	for i := range saved {
		if img.Instrs[i] != saved[i] {
			t.Fatalf("instruction %d not restored after trial", i)
		}
	}
}

func TestOpcodeValidOnlyNeverIllegal(t *testing.T) {
	img := buildImage(t)
	m, fps, _ := profile(img)
	targets := fps.N
	budget := m.InstrCount * 10

	for seed := uint64(0); seed < 60; seed++ {
		rng := fault.NewRNG(seed)
		target := rng.Intn(targets)
		mt := newMachine(img)
		mt.Budget = budget
		opcodeTrial(mt, fps, target, pinfi.OpcodeValidOnly, rng)
		if mt.Trap == vm.TrapIllegal {
			t.Fatalf("seed %d: valid-only mode raised illegal-instruction trap", seed)
		}
	}
}

func TestOpcodeAnyProducesIllegalSometimes(t *testing.T) {
	img := buildImage(t)
	m, fps, golden := profile(img)
	targets := fps.N
	budget := m.InstrCount * 10

	outcomes := map[fault.Outcome]int{}
	illegal := 0
	for seed := uint64(0); seed < 150; seed++ {
		rng := fault.NewRNG(seed * 31)
		target := rng.Intn(targets)
		mt := newMachine(img)
		mt.Budget = budget
		opcodeTrial(mt, fps, target, pinfi.OpcodeAny, rng)
		outcomes[fault.Classify(mt, golden)]++
		if mt.Trap == vm.TrapIllegal {
			illegal++
		}
	}
	if outcomes[fault.Crash] == 0 {
		t.Fatalf("opcode corruption produced no crashes: %v", outcomes)
	}
	// The §4.5 point: unconstrained opcode faults hit invalid encodings.
	if illegal == 0 {
		t.Fatal("unconstrained mode never produced an invalid encoding")
	}
}

// TestOpcodeModesDiverge quantifies the restriction the paper discusses:
// the valid-only distribution must differ from the unconstrained one
// (invalid encodings always crash; valid-but-wrong opcodes often do not).
func TestOpcodeModesDiverge(t *testing.T) {
	img := buildImage(t)
	m, fps, golden := profile(img)
	targets := fps.N
	budget := m.InstrCount * 10

	counts := map[pinfi.OpcodeMode]*fault.Counts{
		pinfi.OpcodeAny:       {},
		pinfi.OpcodeValidOnly: {},
	}
	for mode, c := range counts {
		for seed := uint64(0); seed < 120; seed++ {
			rng := fault.NewRNG(seed*977 + 5)
			target := rng.Intn(targets)
			mt := newMachine(img)
			mt.Budget = budget
			opcodeTrial(mt, fps, target, mode, rng)
			c.Add(fault.Classify(mt, golden))
		}
	}
	if counts[pinfi.OpcodeAny].Crash <= counts[pinfi.OpcodeValidOnly].Crash {
		t.Fatalf("unconstrained opcode faults should crash more: any=%+v valid=%+v",
			counts[pinfi.OpcodeAny], counts[pinfi.OpcodeValidOnly])
	}
}
