package vm

import (
	"fmt"

	"repro/internal/vx"
)

// maxMemSize is the largest address space an image may ask for: the
// assembler's cap (asm.MaxMemSize).
const maxMemSize = 16 * DefaultMemSize

// Validate reports whether img is one the machine can run without
// panicking: what every assembled image is, checked for the images that
// come from outside the process (an object file, a disk-cache entry).
//
//   - The address space is at most 64 MiB; the data segment starts at
//     DefaultGlobalBase, ends within the lower half of memory and holds
//     exactly its initialized bytes.
//   - The entry is an instruction, there are no more sites than
//     instructions, and every instruction's site is -1 or below NumSites.
//   - Every instruction has a known opcode, not a pseudo, and keeps the
//     opcode table's contract (vx.Ops) as assembled: operand forms the op
//     admits, at most one memory operand, register operands of the op's
//     class, a defined condition on JCC and SETCC. Its A and B registers
//     are in the file, its memory base and index GPRs unless absent. Its
//     outputs and class derive from these: a decoded image declares no
//     injection population the assembler would not.
//   - A branch or direct call lands in [0, len(Instrs)] (len is the exit
//     sentinel), and a host call names an imported host function.
func (img *Image) Validate() error {
	if img.MemSize > maxMemSize || img.GlobalBase != DefaultGlobalBase ||
		img.GlobalEnd < img.GlobalBase || img.GlobalEnd > img.MemSize/2 ||
		int64(len(img.InitData)) != img.GlobalEnd-img.GlobalBase ||
		img.EntryPC < 0 || int(img.EntryPC) >= len(img.Instrs) ||
		img.NumSites < 0 || int(img.NumSites) > len(img.Instrs) {
		return fmt.Errorf("bad header: memory %d, data [%d, %d) with %d bytes, entry %d of %d instructions, %d sites",
			img.MemSize, img.GlobalBase, img.GlobalEnd, len(img.InitData), img.EntryPC, len(img.Instrs), img.NumSites)
	}
	inFile := func(r vx.Reg) bool { return r < vx.NumRegs }
	memReg := func(r vx.Reg) bool { return r.IsGPR() || r == vx.NoReg }
	for pc := range img.Instrs {
		in := &img.Instrs[pc]
		info := in.Op.Info()
		bad := func(format string, args ...any) error {
			return fmt.Errorf("instruction %d (%s): %s", pc, in.Op, fmt.Sprintf(format, args...))
		}
		switch {
		case in.SiteID < -1 || in.SiteID >= img.NumSites:
			return bad("site %d of %d", in.SiteID, img.NumSites)
		case in.Op >= vx.NumOps:
			return bad("unknown opcode %d", in.Op)
		case info.Pseudo:
			return bad("pseudo-instruction")
		case !info.A.Assembled().Has(in.AKind) || !info.B.Assembled().Has(in.BKind):
			return bad("operand forms %d, %d", in.AKind, in.BKind)
		case in.AKind == OpMem && in.BKind == OpMem:
			return bad("two memory operands")
		case !inFile(in.AReg) || !inFile(in.BReg):
			return bad("register %d, %d", in.AReg, in.BReg)
		case in.AKind == OpReg && !info.AReg.Admits(in.AReg), in.BKind == OpReg && !info.BReg.Admits(in.BReg):
			return bad("registers %s, %s: wanted %s, %s", in.AReg, in.BReg, info.AReg, info.BReg)
		case !memReg(in.MemBase) || !memReg(in.MemIndex):
			return bad("memory registers %d, %d", in.MemBase, in.MemIndex)
		case info.Cond && in.Cond >= vx.NumConds:
			return bad("condition %d", in.Cond)
		}
		host := in.Op == vx.CALLQ && in.HostIdx >= 0
		if host && int(in.HostIdx) >= len(img.HostFns) {
			return bad("host %d of %d", in.HostIdx, len(img.HostFns))
		}
		if (in.Op == vx.JMP || in.Op == vx.JCC || in.Op == vx.CALLQ && !host) &&
			(in.Target < 0 || int(in.Target) > len(img.Instrs)) {
			return bad("target %d of %d", in.Target, len(img.Instrs))
		}
	}
	return nil
}
