package campaign_test

// The process's machine pool: one stack of idle machines per address-space
// size, shared by every build, a machine lent for another image rebound to
// it. A rebound machine must be indistinguishable from a fresh one, and a
// warm suite must allocate no address space per trial, build or campaign.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/multibit"
	"repro/internal/opcodefi"
	"repro/internal/pinfi"
	"repro/internal/sched"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// freshProfile is RunProfile on a machine of the binary's own.
func freshProfile(bin *campaign.Binary, costs pinfi.CostModel) *campaign.Profile {
	m := bin.NewMachine()
	targets, golden := bin.Tool.Profile(m, bin, costs)
	return &campaign.Profile{Targets: targets, Golden: golden, Budget: m.InstrCount * campaign.TimeoutFactor, Cycles: m.Cycles}
}

// TestMachinesHopBuilds: one goroutine runs the runner's trial loop body
// round-robin over LLFI, REFINE, PINFI, OPCODE and PINFI2 on CG and FT, and
// over REFINE and PINFI on an FT with an 8 MiB address space, so one pooled
// machine of each size hops between every image of its size — its profiles,
// and the first trial of every build, which captures the anchors, included.
// Each profile must be the one a fresh machine records, and each trial the
// one Binary.RunTrial runs on a fresh machine of a private build that
// captured its anchors on fresh machines too. A machine lent for the wide
// app must never be a default-size one. Last, a machine whose last trial
// bound REFINE's library on CG, lent for FT's REFINE image and run with
// nothing but output bound, traps on the unbound host exactly as a fresh
// machine does: no host function of another image survives a rebind.
func TestMachinesHopBuilds(t *testing.T) {
	const rounds, seed = 6, 1
	costs := pinfi.DefaultCosts()
	opts := campaign.DefaultBuildOptions()
	apps := appsByName(t, "CG", "FT")
	wide := apps[1]
	wide.Name, wide.MemSize = "FT-8MiB", 8<<20

	type cell struct {
		app      campaign.App
		hop, ref *campaign.Binary
		prof     *campaign.Profile
	}
	var cells []*cell
	add := func(app campaign.App, tools ...campaign.Tool) {
		for _, tool := range tools {
			ref, err := campaign.BuildBinary(app, tool, opts)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, &cell{app: app, ref: ref, prof: freshProfile(ref, costs)})
		}
	}
	for _, app := range apps {
		add(app, campaign.LLFI, campaign.REFINE, campaign.PINFI, opcodefi.Injector, multibit.PINFI2Injector)
	}
	add(wide, campaign.REFINE, campaign.PINFI)

	campaign.DropIdleMachines()
	cache := campaign.NewCache()
	for _, c := range cells {
		bin, prof, err := cache.BuildAndProfile(c.app, c.ref.Tool, opts, costs)
		if err != nil {
			t.Fatal(err)
		}
		if prof.Targets != c.prof.Targets || prof.Budget != c.prof.Budget || prof.Cycles != c.prof.Cycles ||
			!slices.Equal(prof.Golden, c.prof.Golden) {
			t.Errorf("%s/%s: profile on a pooled machine %+v, on a fresh one %+v", c.app.Name, c.ref.Tool, prof, c.prof)
		}
		c.hop = bin
	}

	machines := map[int]*vm.Machine{} // the one machine of each size
	images := map[*vm.Machine]map[*vm.Image]bool{}
	for i := 0; i < rounds; i++ {
		for _, c := range cells {
			s := campaign.TrialSeed(seed, c.hop.Tool, i)
			got, m, size := c.hop.PooledTrial(c.prof, costs, s)
			if want := c.ref.RunTrial(c.prof, costs, s); got != want {
				t.Errorf("%s/%s trial %d on a hopping machine diverged from a fresh one:\nhopped: %+v\nfresh:  %+v",
					c.app.Name, c.hop.Tool, i, got, want)
			}
			if want := int(c.hop.Img.MemSize); size != want {
				t.Fatalf("%s/%s: lent a %d-byte address space for a %d-byte image", c.app.Name, c.hop.Tool, size, want)
			}
			if machines[size] == nil {
				machines[size], images[m] = m, map[*vm.Image]bool{}
			}
			if m != machines[size] {
				t.Fatalf("%s/%s trial %d ran on a second machine of %d bytes: the pool is one stack per size, and one goroutine uses one machine",
					c.app.Name, c.hop.Tool, i, size)
			}
			images[m][c.hop.Img] = true
		}
	}
	if len(machines) != 2 || len(images[machines[vm.DefaultMemSize]]) != 6 || len(images[machines[8<<20]]) != 2 {
		t.Errorf("machines of %d sizes hopped between %d default-size and %d wide images, want 2 sizes, 6 and 2 images",
			len(machines), len(images[machines[vm.DefaultMemSize]]), len(images[machines[8<<20]]))
	}

	cgRefine, ftRefine := cells[1], cells[6]
	_, last, _ := cgRefine.hop.PooledTrial(cgRefine.prof, costs, 3)
	m := ftRefine.hop.AcquireMachine()
	defer ftRefine.hop.ReleaseMachine(m)
	if m != last {
		t.Fatal("the pool did not lend the machine CG's REFINE trial released")
	}
	if m.HostBound(core.HostSelInstr) {
		t.Errorf("%s still bound on a machine rebound to another image", core.HostSelInstr)
	}
	m.Run()
	fresh := ftRefine.ref.NewMachine()
	fresh.Run()
	if m.Trap != vm.TrapIllegal || m.Trap != fresh.Trap || m.TrapMsg != fresh.TrapMsg || m.InstrCount != fresh.InstrCount ||
		m.Cycles != fresh.Cycles || m.PC != fresh.PC || m.Regs != fresh.Regs || !slices.Equal(m.Output, fresh.Output) ||
		!bytes.Equal(m.Mem, fresh.Mem) {
		t.Errorf("unbound host on a rebound machine: trap=%v %q after %d instructions; fresh machine: trap=%v %q after %d",
			m.Trap, m.TrapMsg, m.InstrCount, fresh.Trap, fresh.TrapMsg, fresh.InstrCount)
	}
}

// TestOneAddressSpacePerWorker is the allocation gate. Building and profiling
// the paper's 14 × 3 cells one after another on an empty pool allocates one
// address space, and each warm 14 × 3 × 8 suite on a two-worker executor at
// most two per worker (none, as long as the pool keeps its machines; a
// per-build pool allocated about 13 a round and one per profile).
func TestOneAddressSpacePerWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the paper's 42 cells")
	}
	const workers = 2
	costs := pinfi.DefaultCosts()
	cache := campaign.NewCache()
	campaign.DropIdleMachines()
	before := campaign.NewAddressSpaces()
	for _, app := range workloads.Registry() {
		for _, tool := range campaign.Tools {
			if _, _, err := cache.BuildAndProfile(app, tool, campaign.DefaultBuildOptions(), costs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := campaign.NewAddressSpaces() - before; n != 1 {
		t.Errorf("building and profiling 42 cells allocated %d address spaces, want 1", n)
	}

	ex := sched.New(workers)
	defer ex.Close()
	for round := 0; round < 3; round++ {
		before := campaign.NewAddressSpaces()
		if _, err := experiments.RunSuite(experiments.Config{Trials: 8, Seed: 1, Cache: cache, Sched: ex}); err != nil {
			t.Fatal(err)
		}
		if n := campaign.NewAddressSpaces() - before; n > 2*workers {
			t.Errorf("warm suite round %d allocated %d address spaces, want at most %d", round, n, 2*workers)
		}
	}
	if st := cache.Stats(); st.Builds != 42 {
		t.Errorf("the suite made %d builds, want the 42 of the set-up", st.Builds)
	}
}
