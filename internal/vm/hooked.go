package vm

// TargetMap precomputes the per-PC bitmap of instructions for which keep
// returns true — an injection population a stepping observer looks up by PC
// (pinfi.Observe). The bitmap is valid for as long as the image's
// instruction stream is; injectors that mutate instructions in place (opcode
// corruption) must stop consulting it no later than the mutation, as the
// bitmap is not re-derived.
func TargetMap(img *Image, keep func(*Inst) bool) []bool {
	tm := make([]bool, len(img.Instrs))
	for pc := range img.Instrs {
		tm[pc] = keep(&img.Instrs[pc])
	}
	return tm
}

// RunStepped executes until halt, trap, or budget exhaustion entirely
// through the reference Step path. The differential suites use it as the
// ground truth runFast is pinned to. Like Run it returns with nothing armed.
func (m *Machine) RunStepped() TrapKind {
	m.Img.ensure()
	for !m.Halted {
		m.Step()
	}
	m.fire = nil
	return m.Trap
}
