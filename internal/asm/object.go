package asm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/vm"
)

// objMagic identifies serialized VX64 images.
var objMagic = [8]byte{'V', 'X', '6', '4', 'O', 'B', 'J', '1'}

// EncodeObject serializes an image to the VX64 object format. The format is a
// faithful binary encoding of the decoded instruction stream plus the data
// segment — the stand-in for the ELF object the paper's compiler emits — and
// round-trips exactly through DecodeObject.
func EncodeObject(img *vm.Image) []byte {
	var b bytes.Buffer
	b.Write(objMagic[:])
	w := func(v any) { _ = binary.Write(&b, binary.LittleEndian, v) }
	ws := func(s string) {
		w(uint32(len(s)))
		b.WriteString(s)
	}

	w(int64(img.MemSize))
	w(int64(img.GlobalBase))
	w(int64(img.GlobalEnd))
	w(int32(img.EntryPC))
	w(int32(img.NumSites))

	w(uint32(len(img.HostFns)))
	for _, h := range img.HostFns {
		ws(h)
	}
	w(uint32(len(img.GlobalAddrs)))
	for _, name := range sortedKeys(img.GlobalAddrs) {
		ws(name)
		w(img.GlobalAddrs[name])
	}
	w(uint32(len(img.Funcs)))
	for _, f := range img.Funcs {
		ws(f.Name)
		w(f.Entry)
		w(f.End)
		w(boolByte(f.IsTarget))
	}
	w(uint32(len(img.InitData)))
	b.Write(img.InitData)

	// Every field of an instruction is fixed-width: the stream is the
	// packed array, instSize bytes an instruction.
	w(uint32(len(img.Instrs)))
	w(img.Instrs)
	return b.Bytes()
}

// instSize is the encoded size of one instruction.
var instSize = binary.Size(vm.Inst{})

// DecodeObject parses a serialized image. It rejects an object no assembled
// image encodes to — a count larger than the bytes left, or an image
// vm.Image.Validate rejects (a header, a register, a branch target or a
// host index the machine could not run) — instead of allocating by it or
// handing it to the VM.
func DecodeObject(data []byte) (*vm.Image, error) {
	r := bytes.NewReader(data)
	var magic [8]byte
	if _, err := r.Read(magic[:]); err != nil || magic != objMagic {
		return nil, fmt.Errorf("asm: bad object magic")
	}
	var err error
	rd := func(v any) {
		if err == nil {
			err = binary.Read(r, binary.LittleEndian, v)
		}
	}
	rs := func() string {
		var n uint32
		rd(&n)
		if err != nil || n > uint32(r.Len()) {
			if err == nil {
				err = fmt.Errorf("asm: truncated string")
			}
			return ""
		}
		buf := make([]byte, n)
		_, _ = r.Read(buf)
		return string(buf)
	}

	img := &vm.Image{GlobalAddrs: make(map[string]int64)}
	rd(&img.MemSize)
	rd(&img.GlobalBase)
	rd(&img.GlobalEnd)
	rd(&img.EntryPC)
	rd(&img.NumSites)

	var n uint32
	rd(&n)
	for i := uint32(0); i < n && err == nil; i++ {
		img.HostFns = append(img.HostFns, rs())
	}
	rd(&n)
	for i := uint32(0); i < n && err == nil; i++ {
		name := rs()
		var a int64
		rd(&a)
		img.GlobalAddrs[name] = a
	}
	rd(&n)
	for i := uint32(0); i < n && err == nil; i++ {
		var f vm.FuncInfo
		f.Name = rs()
		rd(&f.Entry)
		rd(&f.End)
		var t uint8
		rd(&t)
		f.IsTarget = t != 0
		img.Funcs = append(img.Funcs, f)
	}
	rd(&n)
	if err == nil {
		if int(n) > r.Len() {
			return nil, fmt.Errorf("asm: truncated data segment")
		}
		img.InitData = make([]byte, n)
		_, _ = r.Read(img.InitData)
	}

	rd(&n)
	if err == nil {
		if int(n) > r.Len()/instSize {
			return nil, fmt.Errorf("asm: truncated instruction stream")
		}
		img.Instrs = make([]vm.Inst, n)
		rd(img.Instrs)
	}
	if err != nil {
		return nil, fmt.Errorf("asm: decode: %w", err)
	}
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return img, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
