package vm

import (
	"testing"
	"unsafe"
)

// TestUopStaysTwentyFourBytes: the run counts live in what was the uop's
// padding. Every image a process holds keeps one uop per instruction, so a
// larger uop is memory on every build.
func TestUopStaysTwentyFourBytes(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n != 24 {
		t.Fatalf("a uop is %d bytes, want 24", n)
	}
}
