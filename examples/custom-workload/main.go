// Custom-workload: fault-inject your own kernel. A campaign.App is a name
// and a function that builds IR, so any program expressible in the ir
// package's builder can be studied with every registered tool — here a small
// iterative stencil with a checksum, built from scratch, swept with 300
// trials per tool through the campaign package (functional options, context
// cancellation, streaming observer).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/ir"
	"repro/internal/pinfi"

	// Register the extension injectors: the sweep below runs every
	// registered tool.
	_ "repro/internal/multibit"
	_ "repro/internal/opcodefi"
)

// buildHeat constructs a 1D explicit heat-equation solver:
// u[i] += k·(u[i-1] − 2u[i] + u[i+1]) for 40 steps over 64 cells.
func buildHeat() *ir.Module {
	m := ir.NewModule("heat1d")
	m.DeclareHost(ir.HostDecl{Name: "out_f64", Params: []ir.Type{ir.F64}, Ret: ir.I64})
	const n = 64
	m.AddGlobal(ir.Global{Name: "u", Size: n * 8})
	m.AddGlobal(ir.Global{Name: "tmp", Size: n * 8})
	b := ir.NewBuilder(m)

	b.NewFunc("step", ir.Void, ir.F64)
	{
		k := b.Param(0)
		u, tmp := b.GlobalAddr("u"), b.GlobalAddr("tmp")
		b.Loop(b.ConstI(1), b.ConstI(n-1), b.ConstI(1), func(i *ir.Value) {
			um := b.Load(ir.F64, b.Index(u, b.Sub(i, b.ConstI(1))))
			uc := b.Load(ir.F64, b.Index(u, i))
			up := b.Load(ir.F64, b.Index(u, b.Add(i, b.ConstI(1))))
			lap := b.FAdd(b.FSub(um, b.FMul(b.ConstF(2), uc)), up)
			b.Store(b.FAdd(uc, b.FMul(k, lap)), b.Index(tmp, i))
		})
		b.Loop(b.ConstI(1), b.ConstI(n-1), b.ConstI(1), func(i *ir.Value) {
			b.Store(b.Load(ir.F64, b.Index(tmp, i)), b.Index(u, i))
		})
		b.Ret(nil)
	}

	b.NewFunc("main", ir.I64)
	{
		u := b.GlobalAddr("u")
		// Hot spot in the middle.
		b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
			d := b.Sub(i, b.ConstI(n/2))
			d2 := b.Mul(d, d)
			b.Store(b.FDiv(b.ConstF(100), b.SIToFP(b.Add(d2, b.ConstI(1)))), b.Index(u, i))
		})
		b.Loop(b.ConstI(0), b.ConstI(40), b.ConstI(1), func(_ *ir.Value) {
			b.Call("step", b.ConstF(0.2))
		})
		sum := b.NewVar(ir.F64, b.ConstF(0))
		b.Loop(b.ConstI(0), b.ConstI(n), b.ConstI(1), func(i *ir.Value) {
			sum.Set(b.FAdd(sum.Get(), b.Load(ir.F64, b.Index(u, i))))
		})
		b.Call("out_f64", sum.Get())
		b.Call("out_f64", b.Load(ir.F64, b.Index(u, b.ConstI(n/2))))
		b.Ret(b.ConstI(0))
	}
	return m
}

func main() {
	app := campaign.App{Name: "heat1d", Build: buildHeat}
	ctx := context.Background()
	fmt.Printf("%-8s %8s %8s %8s %12s\n", "tool", "crash", "soc", "benign", "cycles")
	for _, tool := range campaign.RegisteredTools() {
		// A campaign with functional options, run under a context. A
		// streaming observer sees every trial in order without buffering
		// the whole record log; here it samples every 100th.
		res, err := campaign.New(app, tool,
			campaign.WithTrials(300),
			campaign.WithSeed(1),
			campaign.WithObserver(func(i int, tr campaign.TrialResult) {
				if i%100 == 0 {
					fmt.Printf("  %s trial %3d: %s\n", tool.Name(), i, tr.Outcome)
				}
			}),
		).Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		c := res.Counts
		fmt.Printf("%-8s %8d %8d %8d %12.3e\n", tool.Name(), c.Crash, c.SOC, c.Benign, float64(res.Cycles))
	}
	fmt.Println("\nSingle-fault reproduction with a fixed seed:")
	bin, err := campaign.BuildBinary(app, campaign.REFINE, campaign.DefaultBuildOptions())
	if err != nil {
		log.Fatal(err)
	}
	costs := pinfi.DefaultCosts()
	prof, err := bin.RunProfile(costs)
	if err != nil {
		log.Fatal(err)
	}
	tr := bin.RunTrial(prof, costs, 99)
	fmt.Printf("seed 99: outcome=%s fault={%s}\n", tr.Outcome, tr.Rec)
}
