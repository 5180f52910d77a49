package opt

import "repro/internal/ir"

// Level selects the optimization pipeline. The zero value is ODefault, which
// resolves to O2 — so a zero-valued build configuration gets the evaluation
// pipeline while an explicit O0 stays distinguishable from "unset" (the
// ablation drivers rely on that distinction).
type Level int

const (
	// ODefault is the zero value: callers that leave the level unset get the
	// evaluation configuration (O2). Resolve maps it before comparisons.
	ODefault Level = iota
	// O0 runs only the mandatory lowering passes (select lowering and
	// critical-edge splitting); locals stay in stack memory. Used by the
	// optimization-level ablation.
	O0
	// O2 runs the full pipeline: SSA promotion, two rounds of folding/CSE/DCE
	// and CFG simplification. This is the evaluation configuration — the
	// paper compiles all benchmarks at -O3 (§A.2.1).
	O2
)

// Resolve maps ODefault to the concrete evaluation level (O2); explicit
// levels pass through. Cache keys and pipelines should compare resolved
// levels so "unset" and "explicitly O2" coincide.
func (l Level) Resolve() Level {
	if l == ODefault {
		return O2
	}
	return l
}

func (l Level) String() string {
	switch l.Resolve() {
	case O0:
		return "O0"
	case O2:
		return "O2"
	}
	return "O?"
}

// funcPass is one named per-function transformation. The name appears in
// VerifyError.Stage when the pass breaks an invariant, so a corrupting pass
// is identified at the point of corruption instead of wherever the damage
// finally crashes.
type funcPass struct {
	name string
	run  func(*ir.Func)
}

// o2Passes is the O2 pipeline in execution order: SSA promotion, then two
// rounds of folding/CSE/DCE and CFG simplification around loop-invariant
// code motion.
var o2Passes = []funcPass{
	{"mem2reg", Mem2Reg},
	{"constfold", drop(ConstFold)},
	{"cse", drop(CSE)},
	{"dce", drop(DCE)},
	{"simplifycfg", drop(SimplifyCFG)},
	{"licm", drop(LICM)},
	{"constfold.2", drop(ConstFold)},
	{"cse.2", drop(CSE)},
	{"dce.2", drop(DCE)},
	{"simplifycfg.2", drop(SimplifyCFG)},
}

// drop adapts a changed-reporting pass to the uniform pass shape.
func drop(p func(*ir.Func) bool) func(*ir.Func) {
	return func(f *ir.Func) { p(f) }
}

// legalizePasses is the mandatory pre-backend lowering, run at every level.
var legalizePasses = []funcPass{
	{"lower-select", LowerSelect},
	{"split-critical-edges", SplitCriticalEdges},
}

// runPasses applies the pass list to one function. With inter-pass
// verification enabled (test binaries, refinec -verify-ir) the function is
// re-verified after every pass and a failure panics with a *ir.VerifyError
// naming the offending pass.
func runPasses(f *ir.Func, prefix string, passes []funcPass) {
	verify := ir.VerifyEachEnabled()
	for _, p := range passes {
		p.run(f)
		if verify {
			if err := ir.VerifyFunc(f); err != nil {
				panic(&ir.VerifyError{Stage: prefix + p.name, Fn: f.Name, Err: err})
			}
		}
	}
}

// Optimize runs the full pipeline at the given level over every function,
// including the mandatory backend lowering, then verifies the module. It
// panics with *ir.VerifyError on verifier failure: a broken pass is a
// programming error in this repository, not a user input error.
func Optimize(m *ir.Module, lvl Level) {
	OptimizeNoLower(m, lvl)
	Legalize(m)
}

// OptimizeNoLower runs only the optimization passes, leaving the module in
// portable IR form. The LLFI comparator instruments at exactly this point —
// after optimization, before lowering — matching its documented workflow
// (paper §A.3.1: sources → IR → opt -O3 → LLFI instrumentation → backend).
func OptimizeNoLower(m *ir.Module, lvl Level) {
	if lvl.Resolve() < O2 {
		return
	}
	for _, f := range m.Funcs {
		runPasses(f, "opt/", o2Passes)
	}
	if err := ir.Verify(m); err != nil {
		panic(&ir.VerifyError{Stage: "opt", Err: err})
	}
}

// Legalize runs the mandatory pre-backend lowering passes and verifies.
func Legalize(m *ir.Module) {
	for _, f := range m.Funcs {
		runPasses(f, "legalize/", legalizePasses)
	}
	if err := ir.Verify(m); err != nil {
		panic(&ir.VerifyError{Stage: "legalize", Err: err})
	}
}
