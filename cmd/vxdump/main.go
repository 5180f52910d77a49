// Command vxdump disassembles a VX64 object file: instruction listing with
// fault-injection site annotations, function table, globals, and image
// statistics (instruction class mix, instrumentation fraction). It is the
// inspection companion to refinec, and the quickest way to see the
// codegen-interference effect: compare `refinec -app HPCCG -S` against
// `refinec -app HPCCG -tool llfi -S`.
//
// Usage:
//
//	vxdump prog.vxo [-stats]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/vx"
)

func main() {
	statsOnly := flag.Bool("stats", false, "print image statistics only")
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: vxdump [flags] prog.vxo"))
	}
	blob, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := asm.DecodeObject(blob)
	if err != nil {
		fatal(err)
	}

	if !*statsOnly {
		fmt.Print(asm.Disasm(img))
		fmt.Println()
	}

	fmt.Printf("entry pc:      %d\n", img.EntryPC)
	fmt.Printf("instructions:  %d\n", len(img.Instrs))
	fmt.Printf("functions:     %d\n", len(img.Funcs))
	fmt.Printf("globals:       %d (%d data bytes)\n", len(img.GlobalAddrs), len(img.InitData))
	fmt.Printf("fi sites:      %d\n", img.NumSites)

	classCount := map[vx.Class]int{}
	instrumented := 0
	memOps := 0
	for i := range img.Instrs {
		in := &img.Instrs[i]
		classCount[in.Shape().Class()]++
		if in.Instrumented {
			instrumented++
		}
		if in.AKind == 4 || in.BKind == 4 { // OpMem
			memOps++
		}
	}
	fmt.Printf("class mix:     arithm=%d mem=%d stack=%d ctl=%d\n",
		classCount[vx.ClassArith], classCount[vx.ClassMem], classCount[vx.ClassStack], classCount[vx.ClassCtl])
	fmt.Printf("mem operands:  %d\n", memOps)
	fmt.Printf("instrumented:  %d (%.1f%%)\n", instrumented, 100*float64(instrumented)/float64(len(img.Instrs)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vxdump:", err)
	os.Exit(1)
}
