// Codegen-interference: reproduces the paper's §3.3.2 / Listing 2
// observation. Compiling the same program with and without LLFI's IR-level
// injectFault calls yields dramatically different machine code: the calls
// clobber caller-saved registers, so the register allocator spills values
// that previously lived in registers, and arithmetic degenerates to
// memory-operand form. REFINE's backend pass, by contrast, leaves the
// application's code generation untouched.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/asm"
	"repro/internal/campaign"
	"repro/internal/codegen"
	"repro/internal/llfi"
	"repro/internal/opt"
	"repro/internal/workloads"
)

func main() {
	app, err := workloads.ByName("HPCCG")
	if err != nil {
		log.Fatal(err)
	}

	// Plain -O2 compile.
	plain := app.Build()
	opt.Optimize(plain, opt.O2)
	plainRes, err := codegen.Compile(plain)
	if err != nil {
		log.Fatal(err)
	}

	// LLFI pipeline: -O2, instrument the optimized IR, then compile.
	instr := app.Build()
	opt.OptimizeNoLower(instr, opt.O2)
	sites := llfi.Instrument(instr, campaign.DefaultBuildOptions().FI)
	opt.Legalize(instr)
	instrRes, err := codegen.Compile(instr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("LLFI instrumented %d IR sites in %s\n\n", sites, app.Name)
	fmt.Printf("%-14s %10s %10s %10s %10s\n", "function", "instrs", "spills", "mem-ops", "calls")
	for i, ps := range plainRes.Stats {
		is := instrRes.Stats[i]
		fmt.Printf("%-14s %4d->%-4d %3d->%-3d %4d->%-4d %3d->%-3d\n",
			ps.Name, ps.Instrs, is.Instrs, ps.SpillSlots, is.SpillSlots,
			ps.MemOps, is.MemOps, ps.Calls, is.Calls)
	}

	// Show the inner-product kernel both ways (the paper's Listing 2).
	fmt.Println("\n--- ddot, plain -O2 (cf. Listing 2b) ---")
	printFunc(plainRes, "ddot")
	fmt.Println("\n--- ddot, with LLFI instrumentation (cf. Listing 2c) ---")
	printFunc(instrRes, "ddot")

	// REFINE adds blocks around instructions but never changes them: the
	// application instructions of a REFINE binary match the plain binary.
	rbin, err := campaign.BuildBinary(app, campaign.REFINE, campaign.DefaultBuildOptions())
	if err != nil {
		log.Fatal(err)
	}
	pbin, err := campaign.BuildBinary(app, campaign.PINFI, campaign.DefaultBuildOptions())
	if err != nil {
		log.Fatal(err)
	}
	appInstrs := 0
	for i := range rbin.Img.Instrs {
		if !rbin.Img.Instrs[i].Instrumented {
			appInstrs++
		}
	}
	fmt.Printf("\nREFINE binary: %d instructions total, %d application instructions "+
		"(plain binary has %d) — code generation untouched.\n",
		len(rbin.Img.Instrs), appInstrs, len(pbin.Img.Instrs))
}

func printFunc(res *codegen.Result, name string) {
	img, err := asm.Assemble(res.Prog, asm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	text := asm.Disasm(img)
	lines := strings.Split(text, "\n")
	emit := false
	count := 0
	for _, l := range lines {
		if strings.HasSuffix(l, ":") && !strings.Contains(l, "\t") {
			emit = strings.HasPrefix(l, name+":")
			continue
		}
		if emit {
			fmt.Println(l)
			count++
			if count > 28 {
				fmt.Println("\t... (truncated)")
				break
			}
		}
	}
}
