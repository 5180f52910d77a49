package vm_test

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/vx"
)

func TestTracerCapturesTail(t *testing.T) {
	img := mustAssemble(t, buildFactorial())
	m := vm.New(img)
	bindOut(m)
	tr := vm.NewTraceRing(16)
	m.Trace = tr
	m.Run()

	entries := tr.Entries()
	if len(entries) != 16 {
		t.Fatalf("ring holds %d entries, want 16", len(entries))
	}
	// Entries must be in execution order with increasing sequence numbers.
	for i := 1; i < len(entries); i++ {
		if entries[i].Seq <= entries[i-1].Seq {
			t.Fatalf("trace out of order at %d: %d then %d", i, entries[i-1].Seq, entries[i].Seq)
		}
	}
	// The final executed instruction is main's RET.
	last := entries[len(entries)-1]
	if last.Op != vx.RET {
		t.Fatalf("last traced op = %s, want ret", last.Op)
	}
	dump := tr.Dump(img)
	if !strings.Contains(dump, "main") || !strings.Contains(dump, "ret") {
		t.Fatalf("dump missing symbols:\n%s", dump)
	}
}

// TestTracerChainsExistingHook: a stepping observer on a traced machine sees
// every instruction, and so does the ring.
func TestTracerChainsExistingHook(t *testing.T) {
	img := mustAssemble(t, buildFactorial())
	m := vm.New(img)
	bindOut(m)
	count := 0
	tr := vm.NewTraceRing(4096)
	m.Trace = tr
	everyInstr(m, func(int32, *vm.Inst) bool { count++; return true })
	if count == 0 {
		t.Fatal("chained hook never ran")
	}
	if int64(count) != m.InstrCount || int64(len(tr.Entries())) != m.InstrCount {
		t.Fatalf("chained hook ran %d times and the ring holds %d entries for %d instructions", count, len(tr.Entries()), m.InstrCount)
	}
}

func TestTracerShortRun(t *testing.T) {
	img := mustAssemble(t, buildFactorial())
	m := vm.New(img)
	bindOut(m)
	tr := vm.NewTraceRing(4096) // deeper than the run
	m.Trace = tr
	m.Run()
	entries := tr.Entries()
	if int64(len(entries)) != m.InstrCount {
		t.Fatalf("partial ring returned %d entries for %d instructions", len(entries), m.InstrCount)
	}
}

// TestTracedRunMatchesUntraced pins the tracer's zero-interference
// contract: a traced run (on Step) must report the identical
// InstrCount/Cycles/output/trap an untraced run does.
func TestTracedRunMatchesUntraced(t *testing.T) {
	bin := buildBin(t, "CG", campaign.PINFI)

	plain := bin.NewMachine()
	plain.Run()

	traced := bin.NewMachine()
	tr := vm.NewTraceRing(32)
	traced.Trace = tr
	traced.Run()

	if plain.InstrCount != traced.InstrCount || plain.Cycles != traced.Cycles {
		t.Errorf("traced run diverged: instrs %d vs %d, cycles %d vs %d",
			traced.InstrCount, plain.InstrCount, traced.Cycles, plain.Cycles)
	}
	if plain.Trap != traced.Trap || plain.ExitCode != traced.ExitCode {
		t.Errorf("traced run diverged: trap %v/%d vs %v/%d",
			traced.Trap, traced.ExitCode, plain.Trap, plain.ExitCode)
	}
	if ps, ts := snapshot(plain), snapshot(traced); !equalStates(ps, ts) {
		t.Errorf("traced run final state diverged:\ntraced: %+v\nplain:  %+v", ts, ps)
	}
	entries := tr.Entries()
	if len(entries) != 32 {
		t.Fatalf("tracer buffered %d entries, want 32", len(entries))
	}
	if last := entries[len(entries)-1]; last.Seq != traced.InstrCount {
		t.Errorf("last trace Seq = %d, want final InstrCount %d", last.Seq, traced.InstrCount)
	}

	// Tracing a counting run must chain, not perturb: identical
	// accounting with and without the tracer under a count hook.
	count := func(m *vm.Machine) {
		pinfi.Observe(m, pinfi.CostModel{PerInstr: 7}, bin.TargetMap(), func(int32) bool { return true })
	}
	counted := bin.NewMachine()
	count(counted)

	both := bin.NewMachine()
	both.Trace = vm.NewTraceRing(16)
	count(both)

	if cs, bs := snapshot(counted), snapshot(both); !equalStates(cs, bs) {
		t.Errorf("tracer over count hook diverged:\nboth:    %+v\ncounted: %+v", bs, cs)
	}
}
