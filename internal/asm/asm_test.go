package asm_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mir"
	"repro/internal/vm"
	"repro/internal/vx"
)

func sampleProg() *mir.Prog {
	p := &mir.Prog{Entry: "main", HostFns: []string{"out_i64", "sel"}}
	p.Globals = []mir.Global{
		{Name: "a", Size: 16, Init: []byte{1, 2, 3}},
		{Name: "b", Size: 24},
	}
	f := &mir.Fn{Name: "main"}
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R1), B: mir.Imm(3), SiteID: 1})
	b0.Emit(&mir.Instr{Op: vx.CMPQ, A: mir.PReg(vx.R1), B: mir.Imm(0)})
	b0.Emit(&mir.Instr{Op: vx.JCC, Cond: vx.CondLE, A: mir.Label(1)})
	b0.Emit(&mir.Instr{Op: vx.CALLQ, A: mir.Sym("out_i64"), NIntArgs: 1})
	b0.Emit(&mir.Instr{Op: vx.JMP, A: mir.Label(1)})
	b1.Emit(&mir.Instr{Op: vx.MOVQ, A: mir.PReg(vx.R0), B: mir.Imm(0)})
	b1.Emit(&mir.Instr{Op: vx.RET})
	g := &mir.Fn{Name: "helper"}
	gb := g.NewBlock()
	gb.Emit(&mir.Instr{Op: vx.MOVSD, A: mir.PReg(vx.F0), B: mir.FImm(2.75), Instrumented: true})
	gb.Emit(&mir.Instr{Op: vx.RET})
	p.Fns = []*mir.Fn{f, g}
	return p
}

func TestAssembleResolvesSymbols(t *testing.T) {
	img, err := asm.Assemble(sampleProg(), asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if img.GlobalAddrs["a"] == 0 || img.GlobalAddrs["b"] == 0 {
		t.Fatalf("globals not placed: %v", img.GlobalAddrs)
	}
	if img.GlobalAddrs["b"] < img.GlobalAddrs["a"]+16 {
		t.Fatalf("globals overlap: %v", img.GlobalAddrs)
	}
	if img.InitData[0] != 1 || img.InitData[1] != 2 {
		t.Fatalf("init data not copied")
	}
	if len(img.Funcs) != 2 || img.Funcs[0].Name != "main" {
		t.Fatalf("function table wrong: %+v", img.Funcs)
	}
	// The call must resolve to host index 0 (out_i64).
	var call *vm.Inst
	for i := range img.Instrs {
		if img.Instrs[i].Op == vx.CALLQ {
			call = &img.Instrs[i]
		}
	}
	if call == nil || call.HostIdx != 0 {
		t.Fatalf("host call not resolved: %+v", call)
	}
}

func TestAssembleErrors(t *testing.T) {
	p := &mir.Prog{Entry: "main"}
	f := &mir.Fn{Name: "main"}
	b := f.NewBlock()
	b.Emit(&mir.Instr{Op: vx.CALLQ, A: mir.Sym("nosuch")})
	p.Fns = []*mir.Fn{f}
	if _, err := asm.Assemble(p, asm.Options{}); err == nil {
		t.Fatalf("expected undefined-function error")
	}

	p2 := &mir.Prog{Entry: "nosuch", Fns: []*mir.Fn{{Name: "main"}}}
	if _, err := asm.Assemble(p2, asm.Options{}); err == nil {
		t.Fatalf("expected missing-entry error")
	}

	p3 := &mir.Prog{Entry: "main", Fns: []*mir.Fn{{Name: "main"}, {Name: "main"}}}
	if _, err := asm.Assemble(p3, asm.Options{}); err == nil {
		t.Fatalf("expected duplicate-function error")
	}

	p4 := sampleProg()
	p4.Globals = append(p4.Globals, mir.Global{Name: "a", Size: 8})
	if _, err := asm.Assemble(p4, asm.Options{}); err == nil {
		t.Fatalf("expected duplicate-global error")
	}
}

func TestObjectRoundTrip(t *testing.T) {
	img, err := asm.Assemble(sampleProg(), asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	blob := asm.EncodeObject(img)
	got, err := asm.DecodeObject(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Instrs) != len(img.Instrs) {
		t.Fatalf("instr count mismatch: %d vs %d", len(got.Instrs), len(img.Instrs))
	}
	for i := range img.Instrs {
		if got.Instrs[i] != img.Instrs[i] {
			t.Fatalf("instr %d mismatch:\n got %+v\nwant %+v", i, got.Instrs[i], img.Instrs[i])
		}
	}
	if got.EntryPC != img.EntryPC || got.MemSize != img.MemSize || got.NumSites != img.NumSites {
		t.Fatalf("header mismatch")
	}
	for k, v := range img.GlobalAddrs {
		if got.GlobalAddrs[k] != v {
			t.Fatalf("global %s mismatch", k)
		}
	}
	if string(got.InitData) != string(img.InitData) {
		t.Fatalf("init data mismatch")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := asm.DecodeObject([]byte("not an object")); err == nil {
		t.Fatalf("expected magic error")
	}
	img, _ := asm.Assemble(sampleProg(), asm.Options{})
	blob := asm.EncodeObject(img)
	if _, err := asm.DecodeObject(blob[:len(blob)/2]); err == nil {
		t.Fatalf("expected truncation error")
	}
}

// TestDecodeRefusesOldLayout: a version-1 object packs the class and
// output registers this layout no longer has into every instruction, so its
// magic is refused rather than its instructions misread.
func TestDecodeRefusesOldLayout(t *testing.T) {
	img, err := asm.Assemble(sampleProg(), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob := asm.EncodeObject(img)
	if string(blob[:8]) != "VX64OBJ2" {
		t.Fatalf("magic %q, want VX64OBJ2", blob[:8])
	}
	copy(blob, "VX64OBJ1")
	if _, err := asm.DecodeObject(blob); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("a VX64OBJ1 object: err = %v, want a magic error", err)
	}
}

func TestDisasmMentionsSymbols(t *testing.T) {
	img, _ := asm.Assemble(sampleProg(), asm.Options{})
	text := asm.Disasm(img)
	for _, want := range []string{"main:", "helper:", "out_i64@host", "movsd", "; fi-instr", "site=1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, text)
		}
	}
}
