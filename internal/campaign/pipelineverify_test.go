package campaign_test

// Pipeline-verification acceptance tests: every kernel of the paper's
// evaluation must build through the fully checked pipeline (IR verified
// between every optimization pass, MIR verified at the backend checkpoints
// and after machine instrumentation) for every tool at both optimization
// levels — and a tool that corrupts the program must be caught at its own
// hook point, with the stage name in the diagnostic.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/mir"
	"repro/internal/opt"
	"repro/internal/workloads"
)

// TestPipelineVerifyAllKernels builds the full evaluation matrix — 14 kernels
// × {LLFI, REFINE, PINFI} × {O0, O2} — with inter-pass verification forced
// on. Any pass or instrumentation hook that breaks an invariant on any
// kernel fails here with the stage name.
func TestPipelineVerifyAllKernels(t *testing.T) {
	prev := ir.VerifyEachEnabled()
	ir.SetVerifyEach(true)
	defer ir.SetVerifyEach(prev)

	apps := workloads.Registry()
	if testing.Short() {
		apps = apps[:2]
	}
	tools := []campaign.Tool{campaign.LLFI, campaign.REFINE, campaign.PINFI}
	for _, app := range apps {
		for _, tool := range tools {
			for _, lvl := range []opt.Level{opt.O0, opt.O2} {
				o := campaign.DefaultBuildOptions()
				o.Opt = lvl
				if _, err := campaign.BuildBinary(app, tool, o); err != nil {
					t.Errorf("%s/%s/%s: %v", app.Name, tool.Name(), lvl, err)
				}
			}
		}
	}
}

// corruptIRTool breaks the module at the IR hook: it drops the terminator of
// the first function's entry block.
type corruptIRTool struct {
	campaign.ToolName
	campaign.Tool
}

func (c corruptIRTool) Name() string   { return string(c.ToolName) }
func (c corruptIRTool) String() string { return string(c.ToolName) }
func (c corruptIRTool) Level() string  { return string(c.ToolName) } // not the wrapped tool's build

func (c corruptIRTool) InstrumentIR(m *ir.Module, cfg fault.Config) int {
	for _, f := range m.Funcs {
		b := f.Entry()
		if n := len(b.Values); n > 0 {
			b.Values = b.Values[:n-1]
			return 1
		}
	}
	return 0
}

// corruptMachineTool breaks the program at the machine hook: it retargets the
// first branch it finds past the end of the block list.
type corruptMachineTool struct {
	campaign.ToolName
	campaign.Tool
}

func (c corruptMachineTool) Name() string   { return string(c.ToolName) }
func (c corruptMachineTool) String() string { return string(c.ToolName) }
func (c corruptMachineTool) Level() string  { return string(c.ToolName) }

func (c corruptMachineTool) InstrumentMachine(p *mir.Prog, cfg fault.Config) (int, error) {
	for _, f := range p.Fns {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.A.Kind == mir.KindLabel {
					in.A.Target = len(f.Blocks) + 17
					return 1, nil
				}
			}
		}
	}
	return 0, nil
}

// TestCorruptingToolCaughtAtHook pins the tentpole property: a broken
// instrumentation pass is identified at its own hook point, by name, as an
// ordinary error — not a crash in the assembler or a silently wrong binary.
func TestCorruptingToolCaughtAtHook(t *testing.T) {
	prev := ir.VerifyEachEnabled()
	ir.SetVerifyEach(true)
	defer ir.SetVerifyEach(prev)

	app, err := workloads.ByName("HPCCG")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		tool  campaign.Tool
		stage string
	}{
		{"ir hook", corruptIRTool{ToolName: "evil-ir", Tool: campaign.PINFI}, "instrument-ir/evil-ir"},
		{"machine hook", corruptMachineTool{ToolName: "evil-mc", Tool: campaign.PINFI}, "instrument-machine/evil-mc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := campaign.BuildBinary(app, tc.tool, campaign.DefaultBuildOptions())
			if err == nil {
				t.Fatal("corrupted build succeeded")
			}
			var verr *ir.VerifyError
			if !errors.As(err, &verr) {
				t.Fatalf("error is not a VerifyError: %v", err)
			}
			if verr.Stage != tc.stage {
				t.Fatalf("stage = %q, want %q (err: %v)", verr.Stage, tc.stage, err)
			}
			if !strings.Contains(err.Error(), tc.stage) {
				t.Fatalf("diagnostic %q does not name the stage", err)
			}
		})
	}
}

// TestVerifyOffSkipsHookChecks pins the gate: with verification off, the
// inter-stage checks do not run (the corrupt binary is caught later or not
// at all, but not via a hook-stage VerifyError).
func TestVerifyOffSkipsHookChecks(t *testing.T) {
	prev := ir.VerifyEachEnabled()
	ir.SetVerifyEach(false)
	defer ir.SetVerifyEach(prev)

	app, err := workloads.ByName("HPCCG")
	if err != nil {
		t.Fatal(err)
	}
	_, err = campaign.BuildBinary(app, corruptMachineTool{ToolName: "evil-mc2", Tool: campaign.PINFI}, campaign.DefaultBuildOptions())
	var verr *ir.VerifyError
	if errors.As(err, &verr) && strings.HasPrefix(verr.Stage, "instrument-machine/") {
		t.Fatalf("hook-stage check ran with verification off: %v", err)
	}
}
