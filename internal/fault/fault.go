// Package fault defines the single-bit-flip fault model shared by all three
// injection tools (paper §3.1): a uniformly random dynamic instruction from
// the tool's target population, a uniformly random output register of that
// instruction, and a uniformly random bit of that register. It also provides
// the deterministic RNG used throughout the experiments and the common
// outcome classification (crash / silent output corruption / benign).
package fault

import (
	"fmt"

	"repro/internal/vm"
	"repro/internal/vx"
)

// RNG is a splitmix64 generator: tiny, fast, and stable across platforms and
// Go versions, which keeps campaigns exactly reproducible.
type RNG struct{ state uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Next returns the next 64 random bits.
func (r *RNG) Next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int64) int64 {
	if n <= 0 {
		panic("fault: Intn with non-positive bound")
	}
	// Rejection sampling removes modulo bias; with n ≪ 2^64 this almost
	// never loops.
	limit := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := r.Next()
		if v < limit {
			return int64(v % uint64(n))
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// ClassSet selects instruction classes for -fi-instrs (paper Table 2).
type ClassSet uint8

const (
	ClassArith ClassSet = 1 << iota
	ClassMem
	ClassStack

	ClassAll = ClassArith | ClassMem | ClassStack
)

// ParseClasses parses the -fi-instrs argument.
func ParseClasses(s string) (ClassSet, error) {
	switch s {
	case "", "all":
		return ClassAll, nil
	case "arithm":
		return ClassArith, nil
	case "mem":
		return ClassMem, nil
	case "stack":
		return ClassStack, nil
	}
	return 0, fmt.Errorf("fault: unknown instruction class %q", s)
}

// Has reports whether the machine class is selected.
func (c ClassSet) Has(k vx.Class) bool {
	switch k {
	case vx.ClassArith:
		return c&ClassArith != 0
	case vx.ClassMem:
		return c&ClassMem != 0
	case vx.ClassStack:
		return c&ClassStack != 0
	}
	return false
}

// Config mirrors the compiler-flag interface of REFINE (paper Table 2) and is
// shared by PINFI so both tools define the same target population.
type Config struct {
	// Funcs restricts instrumentation to the named functions; empty or "*"
	// means all.
	Funcs []string
	// Classes selects instruction classes.
	Classes ClassSet
}

// DefaultConfig is -fi=true -fi-funcs=* -fi-instrs=all, the paper's
// evaluation configuration (§4.4).
func DefaultConfig() Config { return Config{Classes: ClassAll} }

// FuncSelected reports whether the named function is instrumented.
func (c Config) FuncSelected(name string) bool {
	if len(c.Funcs) == 0 {
		return true
	}
	for _, f := range c.Funcs {
		if f == "*" || f == name {
			return true
		}
	}
	return false
}

// TargetInst reports whether a decoded instruction belongs to the injection
// population: application code (not instrumentation), at least one output
// register, class and function selected.
func (c Config) TargetInst(img *vm.Image, in *vm.Inst) bool {
	if in.Instrumented || in.NOut == 0 {
		return false
	}
	if !c.Classes.Has(in.Class) {
		return false
	}
	if len(c.Funcs) != 0 {
		if int(in.FnIdx) >= len(img.Funcs) || !c.FuncSelected(img.Funcs[in.FnIdx].Name) {
			return false
		}
	}
	return true
}

// Record logs one injected fault for reference and repeatability (the
// paper's fault log, Fig. 3b).
type Record struct {
	DynIdx int64  // dynamic index within the target population
	PC     int32  // static instruction address
	SiteID int32  // static site id (REFINE instrumentation), 0 if n/a
	Reg    vx.Reg // flipped register
	Bit    uint   // flipped bit
	Op     string // mnemonic, for the log
}

func (r Record) String() string {
	return fmt.Sprintf("dyn=%d pc=%d site=%d reg=%s bit=%d op=%s",
		r.DynIdx, r.PC, r.SiteID, r.Reg, r.Bit, r.Op)
}

// Outcome classifies a fault-injection run (paper §4.3.2).
type Outcome uint8

const (
	// Benign: execution completed and the output matches the golden run.
	Benign Outcome = iota
	// Crash: non-zero exit code, any trap, or timeout at 10× profile length.
	Crash
	// SOC: silent output corruption — clean exit, wrong final output.
	SOC
	// HarnessFault: the trial never produced a verdict because the harness
	// itself kept failing on it — e.g. a worker process that deterministically
	// crashes executing this trial, reassigned and retried until the per-trial
	// retry budget ran out. It is synthesized by the runtime (never by
	// Classify), so any non-zero HarnessFault count flags an infrastructure
	// problem rather than a property of the application under test.
	HarnessFault
)

func (o Outcome) String() string {
	switch o {
	case Benign:
		return "benign"
	case Crash:
		return "crash"
	case SOC:
		return "soc"
	case HarnessFault:
		return "harness-fault"
	}
	return "?"
}

// Classify derives the outcome of a finished machine run against the golden
// output stream.
func Classify(m *vm.Machine, golden []uint64) Outcome {
	if m.Trap != vm.TrapNone || m.ExitCode != 0 {
		return Crash
	}
	if len(m.Output) != len(golden) {
		return SOC
	}
	for i := range golden {
		if m.Output[i] != golden[i] {
			return SOC
		}
	}
	return Benign
}

// PickOperandAndBit applies the fault model's second and third draws: a
// uniform output operand, then a uniform bit within that operand's width.
// The draw order is part of the cross-tool equivalence contract between
// REFINE and PINFI.
func PickOperandAndBit(rng *RNG, outs []vx.Reg) (int, uint) {
	op := int(rng.Intn(int64(len(outs))))
	bit := uint(rng.Intn(int64(vm.RegBitSize(outs[op]))))
	return op, bit
}

// Counts aggregates outcome frequencies for one (application, tool) cell of
// the paper's Table 6. HarnessFault counts trials the runtime gave up on
// (per-trial retry budget exhausted); it is zero in any healthy campaign.
type Counts struct {
	Crash, SOC, Benign int
	HarnessFault       int
}

// Total returns the number of trials.
func (c Counts) Total() int { return c.Crash + c.SOC + c.Benign + c.HarnessFault }

// Add accumulates an outcome.
func (c *Counts) Add(o Outcome) {
	switch o {
	case Crash:
		c.Crash++
	case SOC:
		c.SOC++
	case HarnessFault:
		c.HarnessFault++
	default:
		c.Benign++
	}
}

// Rates returns the sampled probabilities in percent.
func (c Counts) Rates() (crash, soc, benign float64) {
	n := float64(c.Total())
	if n == 0 {
		return 0, 0, 0
	}
	return 100 * float64(c.Crash) / n, 100 * float64(c.SOC) / n, 100 * float64(c.Benign) / n
}
