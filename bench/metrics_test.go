package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestMetricNames(t *testing.T) {
	if err := validateDefs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]metricDef{
		{{name: "has space"}}, {{name: ""}}, {{name: ".leading"}}, {{name: "a/b"}},
		{{name: "twice"}, {name: "twice"}},
	} {
		if err := validateDefs(bad); err == nil {
			t.Errorf("validateDefs(%v): no error", bad)
		}
	}
	if err := validateDefs([]metricDef{{name: "vm.minstr_per_ktrial.OPCODE-VALID"}}); err != nil {
		t.Errorf("a well-formed name was rejected: %v", err)
	}
}

// The layers the roadmap names each have at least one metric.
func TestEveryLayerHasAMetric(t *testing.T) {
	have := map[string]bool{}
	for _, d := range perLayer {
		for i, c := range d.name {
			if c == '.' {
				have[d.name[:i]] = true
				break
			}
		}
	}
	for _, layer := range []string{"workloads", "ir", "opt", "llfi", "core", "codegen", "asm", "vm", "pinfi",
		"fault", "campaign", "sched", "shard", "serve", "experiments", "stats", "runtime", "driver"} {
		if !have[layer] {
			t.Errorf("layer %s has no metric", layer)
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

// BENCHMARK.json and the program declare the same workloads and metrics:
// every name the contract lists is one the program sets (runWorkload fails a
// traced run that leaves a declared metric unset, and metricSet.set panics on
// an undeclared one), and the other way round.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	var contract []workloadDef
	for _, d := range workloadDefs {
		if !d.byHand {
			contract = append(contract, d)
		}
	}
	if len(doc.Workloads) != len(contract) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(contract))
	}
	for i, w := range doc.Workloads {
		if w.Name != contract[i].name || w.Why != contract[i].why {
			t.Errorf("workload %d: %q (%q) in BENCHMARK.json, %q (%q) in the program", i, w.Name, w.Why, contract[i].name, contract[i].why)
		}
	}
	same := func(kind string, listed []benchMetric, declared []metricDef, bounded bool) {
		if len(listed) != len(declared) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(listed), len(declared))
			return
		}
		for i, m := range listed {
			d := declared[i]
			better := "lower"
			if d.better == higherIsBetter {
				better = "higher"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the program %s [%s, %s]", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}
