package main

import (
	"slices"
	"testing"
)

// The yardstick is the same work every time: it leaves its tables as it found
// them, and two of them walk to the same sums.
func TestYardstickIsFixedWork(t *testing.T) {
	a, b := newYardstick(2), newYardstick(2)
	before := slices.Clone(a.tables[1][0])
	if d := a.sample(); !(d > 0) {
		t.Errorf("sample took %v s", d)
	}
	b.sample()
	if !slices.Equal(a.tables[1][0], before) {
		t.Error("a sample changed its table")
	}
	if !slices.Equal(a.sums, b.sums) {
		t.Errorf("two yardsticks walked to different sums: %v, %v", a.sums, b.sums)
	}
	if a.sums[0] == a.sums[1] {
		t.Error("both threads walked the same table")
	}
}

func TestSpeed(t *testing.T) {
	if s := speed(yardRefSeconds, yardRefSeconds); s != 1 {
		t.Errorf("speed at the reference time = %v, want 1", s)
	}
	if s := speed(yardRefSeconds, 3*yardRefSeconds); s != 0.5 {
		t.Errorf("speed at twice the reference time = %v, want 0.5", s)
	}
}
