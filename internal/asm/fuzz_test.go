package asm_test

// FuzzDecodeObject feeds DecodeObject mutations of real objects (CG and FT
// under REFINE and PINFI, built by the test). vxrun and vxdump read objects
// from disk, so the decoder must never panic or allocate by a count it has
// not checked, and whatever it accepts must survive a re-encode unchanged,
// load into a machine (vm.New) and run, through either loop, to a halt or a
// trap within runBudget instructions without a panic.
//
// Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeObject$' -fuzztime=10s -fuzzminimizetime=100x ./internal/asm/

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/campaign"
	"repro/internal/opt"
	"repro/internal/vm"
	"repro/internal/vx"
	"repro/internal/workloads"
)

// hugeCountObject is a 69-byte object whose header is zero and whose
// instruction count is 0x7ffffff0: a decoder that allocates by that count
// asks for over 100 GiB.
func hugeCountObject() []byte {
	var b bytes.Buffer
	b.WriteString("VX64OBJ2")
	w := func(v any) { binary.Write(&b, binary.LittleEndian, v) }
	w([3]int64{})            // MemSize, GlobalBase, GlobalEnd
	w([2]int32{})            // EntryPC, NumSites
	w([4]uint32{})           // host, global, function and data counts
	w(uint32(0x7ffffff0))    // instruction count
	b.Write(make([]byte, 9)) // a fragment of the first instruction
	return b.Bytes()
}

func FuzzDecodeObject(f *testing.F) {
	for _, name := range []string{"CG", "FT"} {
		app, err := workloads.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, tool := range []campaign.Tool{campaign.REFINE, campaign.PINFI} {
			bin, err := campaign.BuildBinary(app, tool, campaign.DefaultBuildOptions())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(asm.EncodeObject(bin.Img))
		}
	}
	f.Add(hugeCountObject())
	f.Add(impossibleObject(f, impossible(vx.MOVSD2Q, vx.F1)))
	f.Add(impossibleObject(f, impossible(vx.LEAQ, vx.R1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := asm.DecodeObject(data)
		if err != nil {
			return
		}
		again, err := asm.DecodeObject(asm.EncodeObject(img))
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if !reflect.DeepEqual(again, img) {
			t.Fatal("re-encoded image decodes to a different image")
		}
		// What vxrun does next: predecode, map memory, load data, run. No
		// host is bound, so a host call traps.
		for _, stepped := range []bool{false, true} {
			m := vm.New(img)
			m.Budget = runBudget
			if stepped {
				m.RunStepped()
			} else {
				m.Run()
			}
			if !m.Halted {
				t.Fatalf("run (stepped %v) returned without halting", stepped)
			}
		}
	})
}

// impossible is op with a memory A and a register B: the store the
// assembler emits as MOVQ, with an op whose A is a register.
func impossible(op vx.Op, b vx.Reg) vm.Inst {
	return vm.Inst{Op: op, AKind: vm.OpMem, BKind: vm.OpReg, BReg: b, MemBase: vx.SP, MemIndex: vx.NoReg, SiteID: -1}
}

// impossibleObject is the sample program's object with its first
// instruction replaced by in.
func impossibleObject(tb testing.TB, in vm.Inst) []byte {
	img, err := asm.Assemble(sampleProg(), asm.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	img.Instrs[0] = in
	return asm.EncodeObject(img)
}

// runBudget bounds every run of an accepted image.
const runBudget = 4096

// TestDecodeRejectsImpossibleObjects: counts past the data and header values
// no assembled image has are errors, not allocations or VM faults.
func TestDecodeRejectsImpossibleObjects(t *testing.T) {
	if _, err := asm.DecodeObject(hugeCountObject()); err == nil {
		t.Fatal("a 69-byte object claiming 0x7ffffff0 instructions was accepted")
	}
	for name, bad := range map[string]func(img *vm.Image){
		"negative memory":        func(img *vm.Image) { img.MemSize = -8 },
		"memory past the cap":    func(img *vm.Image) { img.MemSize = asm.MaxMemSize * 2 },
		"data past memory":       func(img *vm.Image) { img.GlobalEnd = img.MemSize + 8 },
		"data below its base":    func(img *vm.Image) { img.GlobalEnd = img.GlobalBase - 8 },
		"negative data base":     func(img *vm.Image) { img.GlobalBase = -8 },
		"data base past memory":  func(img *vm.Image) { img.GlobalBase, img.GlobalEnd = img.MemSize+8, img.MemSize+8 },
		"init data past memory":  func(img *vm.Image) { img.InitData = make([]byte, img.MemSize) },
		"entry past the code":    func(img *vm.Image) { img.EntryPC = int32(len(img.Instrs)) },
		"entry before the code":  func(img *vm.Image) { img.EntryPC = -1 },
		"more sites than code":   func(img *vm.Image) { img.NumSites = int32(len(img.Instrs)) + 1 },
		"site past NumSites":     func(img *vm.Image) { img.Instrs[0].SiteID = img.NumSites },
		"unknown opcode":         func(img *vm.Image) { img.Instrs[0].Op = vx.NumOps },
		"register past the file": func(img *vm.Image) { img.Instrs[0].AReg = vx.NumRegs },
		"absent B register":      func(img *vm.Image) { img.Instrs[0].BReg = vx.NoReg },
		"base past the file":     func(img *vm.Image) { img.Instrs[0].MemBase = vx.NumRegs },
		"FP memory base":         func(img *vm.Image) { img.Instrs[0].MemBase = vx.F0 },
		// The shapes FuzzPredecode found running as register writes: an op
		// whose A is a register, given a memory A.
		"movsd2q with a memory A": func(img *vm.Image) { img.Instrs[0] = impossible(vx.MOVSD2Q, vx.F1) },
		"leaq with a memory A":    func(img *vm.Image) { img.Instrs[0] = impossible(vx.LEAQ, vx.R1) },
		"xorpd with a memory A":   func(img *vm.Image) { img.Instrs[0] = impossible(vx.XORPD, vx.F1) },
		"two memory operands": func(img *vm.Image) {
			img.Instrs[0] = vm.Inst{Op: vx.MOVQ, AKind: vm.OpMem, BKind: vm.OpMem, MemBase: vx.SP, MemIndex: vx.NoReg, SiteID: -1}
		},
		"FPR in an integer slot": func(img *vm.Image) { img.Instrs[1].AReg = vx.F1 },
		"FLAGS as an operand":    func(img *vm.Image) { img.Instrs[0].AReg = vx.RFLAGS },
		"label left as an operand": func(img *vm.Image) {
			img.Instrs[2].AKind = vm.OpImm
		},
		"condition past the table": func(img *vm.Image) { img.Instrs[2].Cond = vx.NumConds },
		"pseudo-instruction": func(img *vm.Image) {
			img.Instrs[0] = vm.Inst{Op: vx.VCALL, MemBase: vx.NoReg, MemIndex: vx.NoReg, SiteID: -1}
		},
		"branch past the code": func(img *vm.Image) {
			img.Instrs[0] = vm.Inst{Op: vx.JMP, Target: int32(len(img.Instrs)) + 1, SiteID: -1}
		},
		"branch before the code": func(img *vm.Image) {
			img.Instrs[0] = vm.Inst{Op: vx.JCC, Cond: vx.CondE, Target: -1, SiteID: -1}
		},
		"host past the imports": func(img *vm.Image) {
			img.Instrs[0] = vm.Inst{Op: vx.CALLQ, HostIdx: int32(len(img.HostFns)), SiteID: -1}
		},
	} {
		img, err := asm.Assemble(sampleProg(), asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		bad(img)
		if _, err := asm.DecodeObject(asm.EncodeObject(img)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEveryBuildRoundTrips encodes and decodes every evaluation build — each
// kernel under LLFI, REFINE and PINFI at O0 and O2 — so the opcode table
// admits everything the backend and the instrumentation emit: the decoder
// accepts each object and re-encodes it byte for byte.
func TestEveryBuildRoundTrips(t *testing.T) {
	for _, app := range workloads.Registry() {
		for _, tool := range campaign.Tools {
			for _, lvl := range []opt.Level{opt.O0, opt.O2} {
				o := campaign.DefaultBuildOptions()
				o.Opt = lvl
				bin, err := campaign.BuildBinary(app, tool, o)
				if err != nil {
					t.Fatal(err)
				}
				obj := asm.EncodeObject(bin.Img)
				img, err := asm.DecodeObject(obj)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", app.Name, tool.Name(), lvl, err)
				}
				if !bytes.Equal(asm.EncodeObject(img), obj) {
					t.Fatalf("%s/%s/%v: the decoded image re-encodes differently", app.Name, tool.Name(), lvl)
				}
			}
		}
	}
}
