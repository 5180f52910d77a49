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
//   - Every instruction has a known opcode; its A and B registers are in the
//     register file, and its memory base and index too unless absent
//     (vx.NoReg); it names at most three output registers, all in the file.
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
	for pc := range img.Instrs {
		in := &img.Instrs[pc]
		bad := func(format string, args ...any) error {
			return fmt.Errorf("instruction %d (%s): %s", pc, in.Op, fmt.Sprintf(format, args...))
		}
		switch {
		case in.SiteID < -1 || in.SiteID >= img.NumSites:
			return bad("site %d of %d", in.SiteID, img.NumSites)
		case in.Op >= vx.NumOps:
			return bad("unknown opcode %d", in.Op)
		case !inFile(in.AReg) || !inFile(in.BReg):
			return bad("register %d, %d", in.AReg, in.BReg)
		case !inFile(in.MemBase) && in.MemBase != vx.NoReg || !inFile(in.MemIndex) && in.MemIndex != vx.NoReg:
			return bad("memory registers %d, %d", in.MemBase, in.MemIndex)
		case int(in.NOut) > len(in.Outs):
			return bad("%d outputs", in.NOut)
		}
		for _, r := range in.Outs[:in.NOut] {
			if !inFile(r) {
				return bad("output register %d", r)
			}
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
