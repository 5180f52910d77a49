package vm

import (
	"fmt"
	"strings"

	"repro/internal/vx"
)

// TraceRing is the closure-free ring-buffer trace observer: a fixed-depth
// ring of the most recently committed instructions, recorded by Step
// (straight-line stores, no closure call). Attach by setting Machine.Trace
// before Run: a traced run executes through Step throughout and reports the
// identical InstrCount/Cycles an untraced one does (trace_test.go asserts
// it), and Reset detaches it.
// Fault-injection campaigns discard tracing (speed), but vxrun -trace and
// crash triage in tests use it to reconstruct how a corrupted execution
// reached its trap — the kind of failure forensics a debugger-based injector
// gets for free and compiled-in instrumentation has to earn.
type TraceRing struct {
	ring []TraceEntry
	next int
	full bool
}

// NewTraceRing returns a ring buffering the most recent depth entries
// (depth <= 0: 64).
func NewTraceRing(depth int) *TraceRing {
	if depth <= 0 {
		depth = 64
	}
	return &TraceRing{ring: make([]TraceEntry, depth)}
}

// record appends one committed instruction; Step calls it.
func (t *TraceRing) record(seq int64, pc int32, op vx.Op, sp, flags uint64) {
	t.ring[t.next] = TraceEntry{Seq: seq, PC: pc, Op: op, SP: sp, Flags: flags}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
}

// Entries returns the buffered trace in execution order.
func (t *TraceRing) Entries() []TraceEntry {
	if !t.full {
		return append([]TraceEntry(nil), t.ring[:t.next]...)
	}
	out := make([]TraceEntry, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// TraceEntry records one executed instruction.
type TraceEntry struct {
	Seq   int64
	PC    int32
	Op    vx.Op
	SP    uint64
	Flags uint64
}

// Dump renders the trace with function names resolved against the image.
func (t *TraceRing) Dump(img *Image) string {
	var b strings.Builder
	for _, e := range t.Entries() {
		fn := "?"
		if f := img.FuncOf(e.PC); f != nil {
			fn = f.Name
		}
		fmt.Fprintf(&b, "%10d  pc=%-6d %-10s %-12s sp=%#x flags=%04b\n",
			e.Seq, e.PC, e.Op, fn, e.SP, e.Flags)
	}
	return b.String()
}
