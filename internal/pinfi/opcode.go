package pinfi

import (
	"repro/internal/fault"
	"repro/internal/vm"
	"repro/internal/vx"
)

// OP-code corruption (paper §4.5). The published REFINE can only produce
// *valid* opcodes when a fault hits the instruction encoding, because the
// compiler's emission stage refuses to write an invalid instruction; the
// authors list true opcode corruption as future work, achievable by
// corrupting the instruction bytes in memory at run time. A binary-level
// injector has no such restriction, and this extension implements both
// semantics:
//
//   - OpcodeAny flips a uniformly chosen bit of the target instruction's
//     opcode byte in the loaded image. Out-of-range encodings raise the
//     machine's illegal-instruction trap, exactly like executing a corrupt
//     text page.
//   - OpcodeValidOnly redraws until the flipped opcode is a defined,
//     non-pseudo instruction — the restriction REFINE's compiler-based
//     emission imposes (§4.5).
//
// Corruption is persistent (a flipped bit in the text segment stays
// flipped), matching a memory/in-cache upset rather than a transient
// register fault.
type OpcodeMode uint8

const (
	// OpcodeAny allows invalid encodings (binary-level semantics).
	OpcodeAny OpcodeMode = iota
	// OpcodeValidOnly restricts faults to valid opcodes (compiler-emission
	// semantics, the published REFINE restriction).
	OpcodeValidOnly
)

// CorruptOpcode is the opcode-corruption injection and its undo: inject
// flips one bit of the opcode byte of the instruction it lands on — in the
// machine's image, for the remainder of the run (Repredecode rewrites the
// predecoded stream in place, so the running loop executes the corrupted
// instruction from the next dispatch) — and logs the transition to rec;
// restore puts the opcode back once the machine has halted, so trials are
// independent. A target bitmap is consulted only while Observe is stepping,
// which ends at the injection, so it never observes the corrupted stream.
func CorruptOpcode(target int64, mode OpcodeMode, rng *fault.RNG, rec *fault.Record) (inject vm.ExecHook, restore func()) {
	var img *vm.Image // the corrupted image, once the injection has landed
	var old vx.Op
	inject = func(m *vm.Machine, pc int32, in *vm.Inst) {
		img, old = m.Img, in.Op
		bit := uint(rng.Intn(8))
		flipped := vx.Op(uint8(old) ^ uint8(1<<bit))
		if mode == OpcodeValidOnly {
			for flipped >= vx.NumOps || vx.Ops[flipped].Pseudo {
				bit = uint(rng.Intn(8))
				flipped = vx.Op(uint8(old) ^ uint8(1<<bit))
			}
		}
		*rec = fault.Record{DynIdx: target, PC: pc, Bit: bit, Op: old.String() + "->" + flipped.String()}
		setOpcode(img, pc, flipped)
	}
	restore = func() {
		if img != nil {
			setOpcode(img, rec.PC, old)
		}
	}
	return inject, restore
}

func setOpcode(img *vm.Image, pc int32, op vx.Op) {
	img.Instrs[pc].Op = op
	img.Repredecode(pc)
}
