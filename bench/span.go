package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from this program into a layer of the system under
// test. Parent is the id of the span that caused it (0 = root); spans of one
// campaign share Campaign.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Campaign string `json:"campaign,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"` // filled in by write
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: begin and end are then no-ops, so the end-to-end runs
// execute the same code paths without recording anything.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(parent int, name, campaign string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Campaign: campaign, StartNS: now})
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap one
// another (concurrent campaigns under one round span), so the covered part
// is the length of the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, edge := int64(0), s.StartNS
		for _, iv := range ivs {
			lo, hi := max(iv[0], edge), min(iv[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// write stores the spans, each with its self time, as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	for id, self := range selfTimes(t.spans) {
		t.spans[id-1].SelfNS = self
	}
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
