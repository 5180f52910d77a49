package vm_test

// Differential tests for declared inert host calls (vm.Inert): the hook-free
// loop makes a call its host declares inert itself — counter, R0, cycles,
// clobber, no closure — and Step enters the closure on every call, so every
// row runs both and compares the machine and what the closure saw. The
// control libraries' own declarations are held to their closures by
// TestFastEngineMatchesStepUnderInjection and the site suites; the rows here
// drive a bare counting host through the cases a library never produces.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/llfi"
	"repro/internal/pinfi"
	"repro/internal/vm"
	"repro/internal/vx"
)

// countingHost is a host function with an Inert declaration over its own
// counter. Fn is the closure the declaration summarizes: on a call that is
// not due it only counts and returns Regs[ret]; on a due call (n == event)
// it also records the machine as it finds it and runs act, which may move
// event, answer something else, halt, arm a fire point (one that steps an
// observer, too) or set the budget.
type countingHost struct {
	n, event int64
	seen     []hostCall
	act      func(mm *vm.Machine, c *countingHost)
}

// hostCall is the machine at a due call, as the closure sees it.
type hostCall struct {
	N, InstrCount, Cycles int64
	PC                    int32
	R1, R2                uint64
}

func (c *countingHost) bind(m *vm.Machine, name string, preserve bool, cycles int64, ret vx.Reg) {
	m.BindHost(vm.HostFn{Name: name, PreserveRegs: preserve, Cycles: cycles,
		Inert: vm.Inert{Count: &c.n, Event: &c.event, Ret: ret},
		Fn: func(mm *vm.Machine) {
			due := c.n == c.event
			c.n++
			var r uint64
			if ret != vx.NoReg {
				r = mm.Regs[ret]
			}
			mm.Regs[vx.R0] = r
			if due {
				c.seen = append(c.seen, hostCall{c.n - 1, mm.InstrCount, mm.Cycles, mm.PC, mm.Regs[vx.R1], mm.Regs[vx.R2]})
				if c.act != nil {
					c.act(mm, c)
				}
			}
		}})
}

func (c *countingHost) report() any { return [2]any{c.n, c.seen} }

// counted binds a countingHost in place of a tool's control library: REFINE's
// selInstr (register-preserving, answers 0; setupFI stays core.Lib's) or
// LLFI's four injectFault hosts on one counter (C ABI, pass the value
// through).
func counted(m *vm.Machine, tool campaign.Tool, c *countingHost) {
	if tool == campaign.LLFI {
		for _, h := range []string{llfi.HostFaultI64, llfi.HostFaultI1, llfi.HostFaultPtr} {
			c.bind(m, h, false, 200, vx.R2)
		}
		c.bind(m, llfi.HostFaultF64, false, 200, vx.R0)
		return
	}
	(&core.Lib{Target: -1, RNG: fault.NewRNG(1)}).Bind(m)
	c.bind(m, core.HostSelInstr, true, 0, vx.NoReg)
}

// TestInertCallsMatchStep: on a REFINE image (inert calls inside fused
// sites, and at the unfused CALLQ when a deadline cuts a site) and an LLFI
// image (runFast's host-call arm, C ABI), a counting host whose event comes
// first, last, never, moves on every event, halts, arms an observer, or
// puts a budget or a fire point on each of the instructions that follow.
func TestInertCallsMatchStep(t *testing.T) {
	offsets := 24
	if testing.Short() {
		offsets = 6
	}
	for _, tool := range []campaign.Tool{campaign.REFINE, campaign.LLFI} {
		bin := buildBin(t, "HPCCG", tool)
		prof, err := bin.RunProfile(pinfi.DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}
		total := prof.Targets

		d := newSiteDiff(t, bin)
		row := func(label string, event int64, act func(*vm.Machine, *countingHost)) {
			d.check(label, func(m *vm.Machine) func() any {
				m.Budget = prof.Budget
				c := &countingHost{event: event, act: act}
				counted(m, tool, c)
				return c.report
			})
		}
		row("never due", -1, nil)
		row("due on the first call", 0, nil)
		row("due on the last call", total-1, nil)
		row("Fn moves the event on every event", 0, func(_ *vm.Machine, c *countingHost) {
			if len(c.seen) < 300 {
				c.event = c.n + c.n%5 // %5 == 0: the very next call
			}
		})
		row("Fn halts", total/2, func(mm *vm.Machine, _ *countingHost) { mm.Halted, mm.ExitCode = true, 3 })
		// An observer armed at one event steps the next 300 instructions
		// through Step, which enters Fn on every call: the counter goes on
		// from where the hook-free loop left it, and the events behind it
		// fall on both sides of the detach.
		row("an observer attached mid-run", total/3, func(mm *vm.Machine, c *countingHost) {
			if len(c.seen) == 1 {
				left := 300
				observeNow(mm, func(int32, *vm.Inst) bool {
					left--
					return left > 0
				})
			}
			if len(c.seen) < 40 {
				c.event = c.n + 3
			}
		})
		for off := int64(0); off < int64(offsets); off++ {
			row(fmt.Sprintf("budget at event+%d", off), total/2, func(mm *vm.Machine, _ *countingHost) {
				mm.Budget = mm.InstrCount + off
			})
			row(fmt.Sprintf("fire point at event+%d", off), total/2, func(mm *vm.Machine, c *countingHost) {
				mm.ArmFire(&vm.FirePoint{At: mm.InstrCount + off, PC: mm.PC - 1,
					Fn: func(fm *vm.Machine, _ int32, _ *vm.Inst) {
						fm.FlipBit(vx.R2, 3) // what the next inert LLFI call passes through
						if off%2 == 1 {
							// Step on a few instructions, as a second flip's
							// observer does, before the fast loop resumes.
							left := off
							everyInstr(fm, func(int32, *vm.Inst) bool {
								left--
								return left > 0
							})
						}
					}})
				c.event = c.n + 1
			})
		}
	}
}

// TestInertCountedHostAtSiteShape: a counted host at a site that is not
// selInstr's shape of host — one that clobbers like the C ABI, or whose
// inert answer is a register rather than 0 — leaves the site to its unfused
// slots right after the head store, and must run like the unfused sequence
// and like Step. Rows on the one-site image vm.SiteShape and on a real
// REFINE image.
func TestInertCountedHostAtSiteShape(t *testing.T) {
	hosts := []struct {
		preserve bool
		ret      vx.Reg
	}{{true, vx.NoReg}, {false, vx.NoReg}, {true, vx.R2}, {false, vx.R2}, {true, vx.R0}}

	type result struct {
		state machineState
		mem   []byte
		host  any
	}
	compare := func(label string, fused, unfused *vm.Image, run func(img *vm.Image, stepped bool) result) {
		t.Helper()
		f, u, s := run(fused, false), run(unfused, false), run(fused, true)
		for _, o := range []struct {
			name string
			r    result
		}{{"unfused", u}, {"stepped", s}} {
			if !equalStates(f.state, o.r.state) || !bytes.Equal(f.mem, o.r.mem) || !reflect.DeepEqual(f.host, o.r.host) {
				t.Errorf("%s: fused run diverged from the %s run:\nfused: %+v %v\n%s: %+v %v", label, o.name, f.state, f.host, o.name, o.r.state, o.r.host)
			}
		}
	}

	shape := vm.SiteShape(nil)
	plain := vm.SiteShape(nil)
	vm.UnfuseSites(plain)
	for _, h := range hosts {
		for _, event := range []int64{-1, 0} {
			compare(fmt.Sprintf("site shape, preserve=%v ret=%v event=%d", h.preserve, h.ret, event), shape, plain,
				func(img *vm.Image, stepped bool) result {
					m := vm.New(img)
					m.Budget = 100
					c := &countingHost{event: event}
					c.bind(m, "sel", h.preserve, 0, h.ret)
					m.Regs[vx.R0], m.Regs[vx.R2], m.Regs[vx.R3], m.Regs[vx.RFLAGS] = 11, 22, 33, vx.FlagC
					if stepped {
						m.RunStepped()
					} else {
						m.Run()
					}
					return result{snapshot(m), bytes.Clone(m.Mem), c.report()}
				})
		}
	}

	bin := buildBin(t, "HPCCG", campaign.REFINE)
	unfused := unfusedClone(t, bin)
	prof, err := bin.RunProfile(pinfi.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		compare(fmt.Sprintf("HPCCG/REFINE, preserve=%v ret=%v", h.preserve, h.ret), bin.Img, unfused,
			func(img *vm.Image, stepped bool) result {
				m := bin.NewMachine()
				m.Img = img
				m.Reset()
				m.Budget = prof.Budget
				c := &countingHost{event: prof.Targets / 2}
				(&core.Lib{Target: -1, RNG: fault.NewRNG(1)}).Bind(m) // setupFI
				c.bind(m, core.HostSelInstr, h.preserve, 0, h.ret)
				if stepped {
					m.RunStepped()
				} else {
					m.Run()
				}
				return result{snapshot(m), bytes.Clone(m.Mem), c.report()}
			})
	}
}

// TestInertTrialsInterleaveOnPooledMachine: REFINE and REFINE2 trials, from
// Reset and from a golden snapshot, with and without marks, run one after
// another on one pooled machine — each Bind replaces the declaration the
// last trial's library left on it — exactly as each does on a fresh one.
func TestInertTrialsInterleaveOnPooledMachine(t *testing.T) {
	bin := buildBin(t, "HPCCG", campaign.REFINE)
	prof, err := bin.RunProfile(pinfi.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	n := prof.Targets
	from := n / 4
	start := goldenSnapshot(t, bin, 1, from)
	trials := []libTrial{
		{flips: 1, target: n / 5, seed: 1, marks: []int64{n/5 + 2, n / 2}},
		{flips: 2, target: n / 3, seed: 2, marks: []int64{n/3 + 3, n}},
		{flips: 1, from: from, target: from, seed: 3},
		{flips: 2, from: from, target: from + 7, seed: 4, marks: []int64{from + 10, n / 2}, halt: from + 10},
		{flips: 2, target: n - 1, seed: 5}, // the last call: the second flip never lands
		{flips: 1, target: -1, seed: 6, marks: []int64{1, n}},
		{flips: 2, from: from, target: n / 2, seed: 7},
	}
	pooled := bin.NewMachine()
	for _, tr := range trials {
		tr.budget = prof.Budget
		run := func(m *vm.Machine) (machineState, libState) {
			if tr.from > 0 {
				m.Restore(start)
			} else {
				m.Reset()
			}
			m.Budget = tr.budget
			report := tr.bind(m)
			m.Run()
			return snapshot(m), report()
		}
		ps, pl := run(pooled)
		fs, fl := run(bin.NewMachine())
		if !equalStates(ps, fs) || !reflect.DeepEqual(pl, fl) {
			t.Errorf("%+v: pooled machine diverged from a fresh one:\npooled: %+v %+v\nfresh:  %+v %+v", tr, ps, pl, fs, fl)
		}
	}
}
