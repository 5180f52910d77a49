package asm_test

// FuzzDecodeObject feeds DecodeObject mutations of real objects (CG and FT
// under REFINE and PINFI, built by the test). vxrun and vxdump read objects
// from disk, so the decoder must never panic or allocate by a count it has
// not checked, and whatever it accepts must survive a re-encode unchanged
// and load into a machine (vm.New) without a panic.
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
	"repro/internal/vm"
	"repro/internal/workloads"
)

// hugeCountObject is a 69-byte object whose header is zero and whose
// instruction count is 0x7ffffff0: a decoder that allocates by that count
// asks for over 100 GiB.
func hugeCountObject() []byte {
	var b bytes.Buffer
	b.WriteString("VX64OBJ1")
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
		vm.New(img) // what vxrun does next: predecode, map memory, load data
	})
}

// TestDecodeRejectsImpossibleObjects: counts past the data and header values
// no assembled image has are errors, not allocations or VM faults.
func TestDecodeRejectsImpossibleObjects(t *testing.T) {
	if _, err := asm.DecodeObject(hugeCountObject()); err == nil {
		t.Fatal("a 69-byte object claiming 0x7ffffff0 instructions was accepted")
	}
	for name, bad := range map[string]func(img *vm.Image){
		"negative memory":       func(img *vm.Image) { img.MemSize = -8 },
		"memory past the cap":   func(img *vm.Image) { img.MemSize = asm.MaxMemSize * 2 },
		"data past memory":      func(img *vm.Image) { img.GlobalEnd = img.MemSize + 8 },
		"data below its base":   func(img *vm.Image) { img.GlobalEnd = img.GlobalBase - 8 },
		"negative data base":    func(img *vm.Image) { img.GlobalBase = -8 },
		"data base past memory": func(img *vm.Image) { img.GlobalBase, img.GlobalEnd = img.MemSize+8, img.MemSize+8 },
		"init data past memory": func(img *vm.Image) { img.InitData = make([]byte, img.MemSize) },
		"entry past the code":   func(img *vm.Image) { img.EntryPC = int32(len(img.Instrs)) },
		"entry before the code": func(img *vm.Image) { img.EntryPC = -1 },
		"more sites than code":  func(img *vm.Image) { img.NumSites = int32(len(img.Instrs)) + 1 },
		"site past NumSites":    func(img *vm.Image) { img.Instrs[0].SiteID = img.NumSites },
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
