package pinfi

import (
	"encoding/binary"
	"fmt"
)

// Fire-point index: the per-build artifact that makes binary-level trials
// hook-free end to end. The one observed golden pass per build (Profile)
// records, for every dynamic target-instruction occurrence, the absolute
// InstrCount at which it committed and its PC. A trial then maps "inject at
// the Nth dynamic target occurrence" straight to an absolute instruction
// index and arms the VM's fire-point seam (RunFired): the injection deadline
// rides the budget deadline of the hook-free fast loop, so neither the
// prefix nor the suffix of the trial executes a single observed instruction.
// The index is persisted in the campaign disk cache alongside the profile.

// fireAnchorStride is the occurrence interval between sparse decode anchors:
// a Lookup decodes at most this many delta records.
const fireAnchorStride = 64

// FireAnchor snapshots the delta-decoder state immediately before occurrence
// Index k*fireAnchorStride: byte offset into the stream plus the running
// (InstrCount, PC) pair.
type FireAnchor struct {
	Off   int64
	Instr int64
	PC    int32
}

// FirePoints is the compact per-binary fire-point index: one record per
// dynamic target-instruction occurrence of the golden run, delta-encoded
// (uvarint ΔInstrCount — occurrences are in increasing dynamic order — and
// zigzag-varint ΔPC) with sparse anchors for O(stride) random lookup. The
// exported fields cross the campaign disk cache via gob.
type FirePoints struct {
	// N is the number of recorded occurrences — by construction equal to the
	// profile's dynamic target count.
	N int64
	// Stream is the delta-encoded (ΔInstrCount, ΔPC) record stream.
	Stream []byte
	// Anchors holds one FireAnchor per fireAnchorStride occurrences.
	Anchors []FireAnchor

	// Encoder state (append-time only; reconstructed lookups never use it).
	lastInstr int64 //fi:nowire — transient encoder state, not part of the wire format
	lastPC    int32 //fi:nowire — transient encoder state, not part of the wire format
}

// add appends one occurrence. Occurrences must arrive in dynamic execution
// order (InstrCount strictly increasing).
func (f *FirePoints) add(instr int64, pc int32) {
	if f.N%fireAnchorStride == 0 {
		f.Anchors = append(f.Anchors, FireAnchor{
			Off: int64(len(f.Stream)), Instr: f.lastInstr, PC: f.lastPC,
		})
	}
	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(instr-f.lastInstr))
	n += binary.PutVarint(buf[n:], int64(pc-f.lastPC))
	f.Stream = append(f.Stream, buf[:n]...)
	f.lastInstr, f.lastPC = instr, pc
	f.N++
}

// Lookup returns the absolute InstrCount and PC of the i-th (0-based)
// dynamic target-instruction occurrence of the golden run. It panics on an
// out-of-range index: trial targets are drawn from [0, Profile.Targets) and
// the index records exactly that many occurrences, so a miss is a harness
// bug, not an input condition.
func (f *FirePoints) Lookup(i int64) (instr int64, pc int32) {
	if i < 0 || i >= f.N {
		panic(fmt.Sprintf("pinfi: fire-point index %d out of range [0,%d)", i, f.N))
	}
	a := f.Anchors[i/fireAnchorStride]
	off, instr, pc := a.Off, a.Instr, a.PC
	for k := i - i%fireAnchorStride; k <= i; k++ {
		di, n := binary.Uvarint(f.Stream[off:])
		off += int64(n)
		dp, n := binary.Varint(f.Stream[off:])
		off += int64(n)
		instr += int64(di)
		pc += int32(dp)
	}
	return instr, pc
}
