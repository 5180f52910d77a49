package mir

import (
	"fmt"

	"repro/internal/vx"
)

// VerifyMode selects which MIR invariants apply. The representation changes
// shape across the backend: between instruction selection and register
// allocation it carries virtual registers and the VCALL/VENTRY pseudos; after
// the rewriter, frame lowering and peephole it must be pure architectural
// VX64 that the assembler can encode.
type VerifyMode int

const (
	// PreRA accepts virtual registers and the VCALL/VENTRY pseudos.
	PreRA VerifyMode = iota
	// PostRA requires physical registers only and rejects pseudos.
	PostRA
)

func (m VerifyMode) String() string {
	if m == PreRA {
		return "pre-ra"
	}
	return "post-ra"
}

// symtab is the whole-program symbol view used for resolution checks.
type symtab struct {
	fns     map[string]bool
	hosts   map[string]bool
	globals map[string]bool
}

// Verify checks every function of the program plus the cross-function
// invariants a single function cannot see: unique symbol names, a defined
// entry function, and resolution of every call target and global reference.
// An unresolved symbol here is the gob-era failure mode's static cousin — the
// assembler would reject it later, but without naming the stage that
// introduced it.
func Verify(p *Prog, mode VerifyMode) error {
	syms := &symtab{fns: map[string]bool{}, hosts: map[string]bool{}, globals: map[string]bool{}}
	for _, f := range p.Fns {
		if syms.fns[f.Name] {
			return fmt.Errorf("mir: duplicate function %q", f.Name)
		}
		syms.fns[f.Name] = true
	}
	for _, h := range p.HostFns {
		syms.hosts[h] = true
	}
	for _, g := range p.Globals {
		if syms.globals[g.Name] {
			return fmt.Errorf("mir: duplicate global %q", g.Name)
		}
		syms.globals[g.Name] = true
		if int64(len(g.Init)) > g.Size {
			return fmt.Errorf("mir: global %q init larger than size", g.Name)
		}
	}
	if p.Entry != "" && !syms.fns[p.Entry] {
		return fmt.Errorf("mir: entry function %q not defined", p.Entry)
	}
	for _, f := range p.Fns {
		if err := verifyFn(f, mode, syms); err != nil {
			return err
		}
	}
	return nil
}

// VerifyFn checks one function's structural invariants: block indexing,
// branch-target validity, operand arity and kinds per opcode (vx.Ops), and
// register validity/class per mode. Symbol resolution needs the whole
// program — use Verify for that.
func VerifyFn(f *Fn, mode VerifyMode) error {
	return verifyFn(f, mode, nil)
}

func verifyFn(f *Fn, mode VerifyMode, syms *symtab) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("mir: %s: no blocks", f.Name)
	}
	if mode == PreRA && len(f.VRegClasses) != f.NumVRegs {
		return fmt.Errorf("mir: %s: %d vreg classes recorded for %d vregs", f.Name, len(f.VRegClasses), f.NumVRegs)
	}
	for bi, b := range f.Blocks {
		if b.Index != bi {
			return fmt.Errorf("mir: %s: block at position %d has index %d", f.Name, bi, b.Index)
		}
		for _, s := range b.Succs {
			if s < 0 || s >= len(f.Blocks) {
				return fmt.Errorf("mir: %s.b%d: successor %d out of range", f.Name, bi, s)
			}
		}
		for _, in := range b.Instrs {
			if err := verifyInstr(f, bi, in, mode, syms); err != nil {
				return fmt.Errorf("mir: %s.b%d: %v: %w", f.Name, bi, in, err)
			}
		}
	}
	return nil
}

// checkReg validates one register number against the mode and class.
func checkReg(f *Fn, mode VerifyMode, reg int, req vx.RegClass) error {
	if reg >= VRegBase {
		if mode == PostRA {
			return fmt.Errorf("virtual register v%d survives past register allocation", reg-VRegBase)
		}
		idx := reg - VRegBase
		if idx >= f.NumVRegs {
			return fmt.Errorf("virtual register v%d out of range (have %d)", idx, f.NumVRegs)
		}
		if idx < len(f.VRegClasses) {
			switch {
			case req == vx.GPROnly && f.VRegClasses[idx] != ClassInt:
				return fmt.Errorf("v%d is FP-class in an integer slot", idx)
			case req == vx.FPROnly && f.VRegClasses[idx] != ClassFP:
				return fmt.Errorf("v%d is int-class in an FP slot", idx)
			}
		}
		return nil
	}
	r := vx.Reg(reg)
	if !r.IsGPR() && !r.IsFPR() {
		return fmt.Errorf("register operand %d is not an addressable architectural register", reg)
	}
	if !req.Admits(r) {
		return fmt.Errorf("%s in a %s slot", r, req)
	}
	return nil
}

// checkMem validates a memory operand: symbol-based addressing has no base
// register, register-based addressing has a valid integer base, the optional
// index carries a hardware scale.
func checkMem(f *Fn, mode VerifyMode, o Operand, syms *symtab) error {
	if o.Sym != "" {
		if o.Base >= 0 {
			return fmt.Errorf("memory operand has both symbol %q and base register", o.Sym)
		}
		if syms != nil && !syms.globals[o.Sym] {
			return fmt.Errorf("memory operand references undefined global %q", o.Sym)
		}
	} else {
		if o.Base < 0 {
			return fmt.Errorf("memory operand has neither symbol nor base register")
		}
		if err := checkReg(f, mode, o.Base, vx.GPROnly); err != nil {
			return fmt.Errorf("base: %w", err)
		}
	}
	if o.Index >= 0 {
		if err := checkReg(f, mode, o.Index, vx.GPROnly); err != nil {
			return fmt.Errorf("index: %w", err)
		}
		switch o.Scale {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("index scale %d is not addressable", o.Scale)
		}
	}
	return nil
}

func verifyInstr(f *Fn, blockIdx int, in *Instr, mode VerifyMode, syms *symtab) error {
	if in.Op >= vx.NumOps {
		return fmt.Errorf("unknown opcode %d", in.Op)
	}

	info := in.Op.Info()

	// Pseudos: legal only between isel and register allocation.
	if info.Pseudo {
		if mode == PostRA {
			return fmt.Errorf("pseudo %s survives past register allocation", in.Op)
		}
		if in.Op == vx.VENTRY && blockIdx != 0 {
			return fmt.Errorf("ventry outside the entry block")
		}
		if in.Op == vx.VCALL {
			if in.A.Kind != KindSym || in.A.Sym == "" {
				return fmt.Errorf("vcall without a target symbol")
			}
			if err := checkCallTarget(in.A.Sym, syms); err != nil {
				return err
			}
			if in.CallRes >= 0 {
				if err := checkReg(f, mode, in.CallRes, vx.AnyReg); err != nil {
					return fmt.Errorf("result: %w", err)
				}
			}
		}
		for i, r := range in.Regs {
			if err := checkReg(f, mode, r, vx.AnyReg); err != nil {
				return fmt.Errorf("pseudo reg %d: %w", i, err)
			}
		}
		return nil
	}

	if !info.A.Has(in.A.Kind) {
		return fmt.Errorf("operand A kind %d not allowed", in.A.Kind)
	}
	if !info.B.Has(in.B.Kind) {
		return fmt.Errorf("operand B kind %d not allowed", in.B.Kind)
	}
	// The VM decodes at most one memory operand per instruction.
	if in.A.Kind == KindMem && in.B.Kind == KindMem {
		return fmt.Errorf("two memory operands")
	}

	check := func(o Operand, class vx.RegClass, side string) error {
		switch o.Kind {
		case KindReg:
			if err := checkReg(f, mode, o.Reg, class); err != nil {
				return fmt.Errorf("%s: %w", side, err)
			}
		case KindMem:
			if err := checkMem(f, mode, o, syms); err != nil {
				return fmt.Errorf("%s: %w", side, err)
			}
		case KindLabel:
			if o.Target < 0 || o.Target >= len(f.Blocks) {
				return fmt.Errorf("%s: branch target %d out of range (%d blocks)", side, o.Target, len(f.Blocks))
			}
		case KindSym:
			if o.Sym == "" {
				return fmt.Errorf("%s: empty symbol", side)
			}
		}
		return nil
	}
	if err := check(in.A, info.AReg, "A"); err != nil {
		return err
	}
	if err := check(in.B, info.BReg, "B"); err != nil {
		return err
	}
	if info.Cond && in.Cond >= vx.NumConds {
		return fmt.Errorf("condition code %d out of range", in.Cond)
	}

	switch in.Op {
	case vx.CALLQ:
		if err := checkCallTarget(in.A.Sym, syms); err != nil {
			return err
		}
		if in.NIntArgs < 0 || in.NIntArgs > len(vx.IntArgRegs) ||
			in.NFPArgs < 0 || in.NFPArgs > len(vx.FPArgRegs) {
			return fmt.Errorf("call arity %d int / %d fp exceeds ABI registers", in.NIntArgs, in.NFPArgs)
		}
	case vx.LEAQ:
		if in.B.Kind == KindSym && syms != nil && !syms.globals[in.B.Sym] {
			return fmt.Errorf("lea of undefined global %q", in.B.Sym)
		}
	}
	return nil
}

func checkCallTarget(sym string, syms *symtab) error {
	if syms == nil {
		return nil
	}
	if !syms.fns[sym] && !syms.hosts[sym] {
		return fmt.Errorf("call to undefined symbol %q", sym)
	}
	return nil
}
