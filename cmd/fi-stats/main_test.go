package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestStdoutMatchesGolden runs fi-stats with its default flags and compares
// what it prints with testdata/stdout.golden byte for byte. Regenerate the
// golden only when a change is meant to move the output:
//
//	go run ./cmd/fi-stats > cmd/fi-stats/testdata/stdout.golden
func TestStdoutMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		got <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	func() {
		defer func() { os.Stdout = stdout }()
		main()
	}()
	w.Close()
	if b := <-got; !bytes.Equal(b, want) {
		t.Errorf("stdout differs from testdata/stdout.golden; got:\n%s", b)
	}
}
