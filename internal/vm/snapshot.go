package vm

import (
	"bytes"
	"math/bits"
	"slices"

	"repro/internal/vx"
)

// Snapshot is a machine's architectural state at an inter-instruction
// boundary of a run — registers, PC, InstrCount, Cycles, the output emitted
// so far and the contents of every page dirty at that boundary — taken with
// Machine.Snapshot, put back with Machine.Restore, compared with Matches. A
// trial whose fault lands after the boundary starts there instead of
// re-executing the golden prefix from Reset; one whose fault left no trace
// by then ends there. It holds no per-run harness state (Budget, trace, an
// armed fire point, host bindings): Restore leaves those as Reset does, and
// the caller sets up the run. Immutable once taken, so any number of
// machines restore from one concurrently.
type Snapshot struct {
	regs       [vx.NumRegs]uint64
	pc         int32
	instrCount int64
	cycles     int64
	output     []uint64

	// dirty is the machine's dirty-page bitmap at the boundary. A page it
	// does not mark holds zeroes: Reset marks every page it writes
	// (initialized data, the exit sentinel), so clean means never written
	// since the address space was allocated. Of a marked page the snapshot
	// keeps one extent, from its first to its last non-zero byte — a stack
	// page is mostly untouched, a data page rarely full — and mem holds the
	// extents back to back, in page order.
	dirty   []uint64
	extents []extent
	mem     []byte
}

// extent is a run of n bytes at addr.
type extent struct{ addr, n int }

// Bytes reports the memory the snapshot retains.
func (s *Snapshot) Bytes() int { return len(s.mem) + 16*len(s.extents) + 8*len(s.output) }

// At reports the InstrCount and the Cycles of the snapshot's boundary.
func (s *Snapshot) At() (instrs, cycles int64) { return s.instrCount, s.cycles }

// eachDirtyPage calls fn with the byte range of every page marked dirty, in
// page order.
func (m *Machine) eachDirtyPage(fn func(lo, hi int)) {
	for wi, w := range m.dirty {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			lo := (wi*64 + b) << dirtyPageShift
			fn(lo, min(lo+dirtyPageSize, len(m.Mem)))
		}
	}
}

// Snapshot captures the machine's state at the current inter-instruction
// boundary: call it between instructions of a run — from a FirePoint.Fn, or
// before Run — never from a host function, whose call is still in flight.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		regs:       m.Regs,
		pc:         m.PC,
		instrCount: m.InstrCount,
		cycles:     m.Cycles,
		output:     append([]uint64(nil), m.Output...),
		dirty:      append([]uint64(nil), m.dirty...),
	}
	total := 0
	m.eachDirtyPage(func(lo, hi int) {
		for lo < hi && m.Mem[lo] == 0 {
			lo++
		}
		for hi > lo && m.Mem[hi-1] == 0 {
			hi--
		}
		if lo < hi {
			s.extents = append(s.extents, extent{lo, hi - lo})
			total += hi - lo
		}
	})
	s.mem = make([]byte, 0, total)
	for _, e := range s.extents {
		s.mem = append(s.mem, m.Mem[e.addr:e.addr+e.n]...)
	}
	return s
}

// Restore puts the machine into the snapshot's state, as if it had just
// executed the golden prefix up to that boundary, and otherwise leaves it as
// Reset does: not halted, no Budget, no trace, nothing armed. The machine
// must run the snapshot's image (or a clone of it). Reset is the restore of
// the state before the first instruction, and the two share the dirty-page
// sweep: every page dirty now is zeroed, the snapshot's extents are copied
// in, and the machine's dirty set becomes the snapshot's — it has to cover
// every restored page, or the next Reset or Restore of this (pooled) machine
// would sweep only what the run after this one wrote and leave golden data
// behind.
func (m *Machine) Restore(s *Snapshot) {
	if len(s.dirty) != len(m.dirty) {
		panic("vm: Restore: snapshot of a different address space")
	}
	m.eachDirtyPage(func(lo, hi int) { clear(m.Mem[lo:hi]) })
	off := 0
	for _, e := range s.extents {
		off += copy(m.Mem[e.addr:e.addr+e.n], s.mem[off:])
	}
	copy(m.dirty, s.dirty)
	m.Regs = s.regs
	m.PC = s.pc
	m.InstrCount = s.instrCount
	m.Cycles = s.cycles
	m.Output = append(m.Output[:0], s.output...)
	m.clearRun()
}

// zeroPage is what a never-written page holds.
var zeroPage [dirtyPageSize]byte

// Matches reports whether the machine's architectural state is the
// snapshot's: registers (FLAGS among them) and PC, the output, and every
// byte of memory. The VM is deterministic, so a machine that matches — with
// nothing pending in the harness around it — has the snapshot's run ahead of
// it. InstrCount and Cycles are not state and are not compared: a run that
// took a detour and rejoined sits at the boundary late. Registers go first,
// one array compare that turns away almost every machine that does not
// match. Memory is compared on the pages dirty on either side, all that can
// differ from zero: a page the snapshot marks holds its extent with zeroes
// around it, a page only the machine marks has to be all zeroes. Like
// Restore it panics on another address space.
func (s *Snapshot) Matches(m *Machine) bool {
	if len(s.dirty) != len(m.dirty) {
		panic("vm: Matches: snapshot of a different address space")
	}
	if s.regs != m.Regs || s.pc != m.PC || !slices.Equal(s.output, m.Output) {
		return false
	}
	ext, mem := s.extents, s.mem // not yet compared
	for wi, w := range s.dirty {
		for w |= m.dirty[wi]; w != 0; w &= w - 1 {
			lo := (wi*64 + bits.TrailingZeros64(w)) << dirtyPageShift
			page := m.Mem[lo:min(lo+dirtyPageSize, len(m.Mem))]
			if len(ext) > 0 && ext[0].addr < lo+len(page) {
				at, n := ext[0].addr-lo, ext[0].n
				if !bytes.Equal(page[at:at+n], mem[:n]) || !bytes.Equal(page[:at], zeroPage[:at]) {
					return false
				}
				ext, mem, page = ext[1:], mem[n:], page[at+n:]
			}
			if !bytes.Equal(page, zeroPage[:len(page)]) {
				return false
			}
		}
	}
	return true
}
