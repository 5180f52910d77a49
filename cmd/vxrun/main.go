// Command vxrun loads a VX64 object file produced by refinec and executes it
// on the virtual machine, printing the program's output stream, exit status
// and execution statistics. When the object was built with REFINE or LLFI
// instrumentation, -fi-target injects a fault at the given dynamic target
// index (use -profile first to learn the population size).
//
// Usage:
//
//	vxrun prog.vxo [-profile] [-fi-target N] [-seed S] [-budget N]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/llfi"
	"repro/internal/vm"
	"repro/internal/vx"
)

func main() {
	profile := flag.Bool("profile", false, "run in profiling mode (count FI targets)")
	fiTarget := flag.Int64("fi-target", -1, "dynamic target index to inject at (-1 = no injection)")
	seed := flag.Uint64("seed", 1, "RNG seed for operand/bit selection")
	budget := flag.Int64("budget", 0, "instruction budget (0 = unlimited)")
	trace := flag.Int("trace", 0, "dump the last N executed instructions")
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: vxrun [flags] prog.vxo"))
	}
	blob, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := asm.DecodeObject(blob)
	if err != nil {
		fatal(err)
	}

	m := vm.New(img)
	m.Budget = *budget
	m.BindHost(vm.HostFn{Name: "out_i64", Fn: func(mm *vm.Machine) {
		fmt.Printf("out: %d\n", int64(mm.Regs[vx.R1]))
		mm.Output = append(mm.Output, mm.Regs[vx.R1])
		mm.Regs[vx.R0] = 0
	}})
	m.BindHost(vm.HostFn{Name: "out_f64", Fn: func(mm *vm.Machine) {
		fmt.Printf("out: %g\n", math.Float64frombits(mm.Regs[vx.F0]))
		mm.Output = append(mm.Output, mm.Regs[vx.F0])
		mm.Regs[vx.R0] = 0
	}})

	// Bind whichever FI runtime the object imports. A profile is a run whose
	// library never fires (target < 0).
	target := *fiTarget
	if *profile {
		target = -1
	}
	var fiTargets *int64             // the library's dynamic target count
	var faultRec func() fault.Record // an injected run's fault log, read after the run
	switch {
	case img.Imports(core.HostSelInstr):
		lib := &core.Lib{Target: target, RNG: fault.NewRNG(*seed)}
		lib.Bind(m)
		fiTargets = &lib.Count
		faultRec = func() fault.Record {
			lib.ResolveRecord(img)
			return lib.Rec
		}
	case img.Imports(llfi.HostFaultI64):
		lib := &llfi.Lib{Target: target, RNG: fault.NewRNG(*seed)}
		lib.Bind(m)
		fiTargets = &lib.Count
		faultRec = func() fault.Record { return lib.Rec }
	}

	if *trace > 0 {
		m.Trace = vm.NewTraceRing(*trace)
	}

	trap := m.Run()
	if m.Trace != nil {
		fmt.Print(m.Trace.Dump(img))
	}
	fmt.Printf("exit=%d trap=%s instrs=%d cycles=%d\n", m.ExitCode, trap, m.InstrCount, m.Cycles)
	if fiTargets != nil && target < 0 {
		fmt.Printf("fi-targets: %d\n", *fiTargets)
	} else if fiTargets != nil {
		fmt.Printf("fault: %s\n", faultRec())
	}
	if trap != vm.TrapNone {
		fmt.Printf("trap detail: %s\n", m.TrapMsg)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vxrun:", err)
	os.Exit(1)
}
