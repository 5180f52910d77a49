package main

import "testing"

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "round", StartNS: 0, EndNS: 100},
		// nested: 2 under 1, 3 under 2
		{ID: 2, Parent: 1, Name: "campaign", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 2, Name: "build", StartNS: 20, EndNS: 30},
		// overlapping siblings under 1: [10,60) ∪ [40,80) covers 70, not 90
		{ID: 4, Parent: 1, Name: "campaign", StartNS: 40, EndNS: 80},
		// a child contained in a sibling adds nothing
		{ID: 5, Parent: 1, Name: "campaign", StartNS: 45, EndNS: 50},
		// a child running past its parent is clipped to it
		{ID: 6, Parent: 4, Name: "store", StartNS: 70, EndNS: 95},
	}
	want := map[int]int64{1: 30, 2: 40, 3: 10, 4: 30, 5: 5, 6: 25}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerOffIsInert(t *testing.T) {
	var tr *tracer
	if id := tr.begin(0, "x", ""); id != 0 {
		t.Errorf("nil tracer handed out span id %d", id)
	}
	tr.end(0) // must not panic

	on := newTracer()
	a := on.begin(0, "outer", "c1")
	b := on.begin(a, "inner", "c1")
	on.end(b)
	on.end(a)
	if len(on.spans) != 2 || on.spans[1].Parent != a || on.spans[0].EndNS < on.spans[1].EndNS {
		t.Errorf("spans = %+v", on.spans)
	}
}
