package main

import (
	"fmt"
	"regexp"
	"sort"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json lists
// the same names (metrics_test.go holds the two in step).
type metricDef struct {
	name, unit string
	better     direction
}

// endToEnd are the metrics a user of the system sees, reported per workload
// by an untraced run. failed_share is printed with them but is not in
// BENCHMARK.json: it is 0 on every healthy run, and the pipeline takes it
// from the attempted/failed counts of the result line instead.
var endToEnd = []metricDef{
	{"trials_per_s", "1/s", higherIsBetter},
	{"cpu_s_per_ktrial", "s", lowerIsBetter},
	{"peak_rss_mb", "MB", lowerIsBetter},
	{"setup_s", "s", lowerIsBetter},
}

const failedShare = "failed_share"

// toolsTraced are the tools the per-tool trial-stack metrics are split by.
var toolsTraced = []string{"LLFI", "REFINE", "PINFI", "OPCODE", "PINFI2"}

// perLayer are the single-layer metrics of the traced run, layer.metric.
var perLayer = func() []metricDef {
	hi, lo := higherIsBetter, lowerIsBetter
	defs := []metricDef{
		// Set-up stack, summed over the probe matrix.
		{"workloads.build_ms", "ms", lo},
		{"ir.verify_ms", "ms", lo},
		{"ir.fingerprint_ms", "ms", lo},
		{"opt.optimize_ms", "ms", lo},
		{"llfi.instrument_ms", "ms", lo},
		{"core.instrument_ms", "ms", lo},
		{"codegen.compile_ms", "ms", lo},
		{"asm.assemble_ms", "ms", lo},
		{"asm.image_kinstrs", "count", lo},
		{"vm.new_machine_us", "us", lo},
		{"campaign.profile_ms", "ms", lo},
		{"vm.profile_minstr_per_s", "1/s", hi},
		{"pinfi.firepoints_ms", "ms", lo},
		{"pinfi.firepoint_index_kb", "kB", lo},
		{"campaign.build_and_profile_ms", "ms", lo},
		// Trial stack.
		{"vm.golden_minstr_per_s", "1/s", hi},
		{"vm.reset_us", "us", lo},
		{"vm.trial_minstr_per_s", "1/s", hi},
		{"pinfi.prefix_share", "ratio", lo},
		{"fault.classify_ns", "ns", lo},
		{"campaign.merger_add_ns", "ns", lo},
		{"runtime.alloc_kb_per_trial", "kB", lo},
		{"runtime.mallocs_per_trial", "count", lo},
		// Scheduler.
		{"sched.dispatch_ns_per_iter", "ns", lo},
		{"sched.parallel_eff", "ratio", hi},
		{"sched.idle_share", "ratio", lo},
		// Cache and journal.
		{"campaign.cache_store_ms", "ms", lo},
		{"campaign.cache_load_ms", "ms", lo},
		{"campaign.cache_entry_kb", "kB", lo},
		{"campaign.compose_restore_us_per_trial", "us", lo},
		{"campaign.compose_reused_share", "ratio", hi},
		{"campaign.compose_sections_reinjected", "count", lo},
		{"campaign.journal_append_ns", "ns", lo},
		{"campaign.journal_bytes_per_trial", "B", lo},
		{"campaign.journal_load_us_per_ktrial", "us", lo},
		{"campaign.cache_quarantined", "count", lo},
		{"campaign.cache_disk_errors", "count", lo},
		// Shard pool and daemon.
		{"shard.spawn_ms", "ms", lo},
		{"shard.stdio_overhead_us_per_trial", "us", lo},
		{"shard.tcp_overhead_us_per_trial", "us", lo},
		{"shard.deaths", "count", lo},
		{"shard.worker_cpu_share", "ratio", hi},
		{"serve.first_event_ms", "ms", lo},
		{"serve.live_events_per_s", "1/s", hi},
		{"serve.replay_events_per_s", "1/s", hi},
		{"serve.bytes_per_event", "B", lo},
		{"serve.coordinator_cpu_us_per_trial", "us", lo},
		{"serve.rss_growth_mb_per_kevent", "MB", lo},
		{"serve.reconnects", "count", lo},
		// Fidelity: must repeat exactly.
		{"experiments.fig5_refine_vs_pinfi", "ratio", lo},
		{"experiments.fig5_llfi_vs_pinfi", "ratio", lo},
		{"stats.table5_llfi_sig_apps", "count", hi},
		{"stats.table5_refine_sig_apps", "count", lo},
		{"stats.render_ms", "ms", lo},
		// The run itself.
		{"driver.trials_per_s_mean", "1/s", hi},
		{"driver.trials_per_s_median", "1/s", hi},
		{"driver.round_iqr_pct", "%", lo},
		{"driver.machine_speed", "ratio", hi},
		{"driver.trace_overhead_pct", "%", lo},
		{"driver.failed_share", "ratio", lo},
	}
	for _, t := range toolsTraced {
		defs = append(defs,
			metricDef{"vm.minstr_per_ktrial." + t, "count", lo},
			metricDef{"campaign.trial_us_p50." + t, "us", lo},
			metricDef{"campaign.trial_us_p99." + t, "us", lo},
		)
	}
	return defs
}()

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validateDefs rejects a malformed or repeated metric name.
func validateDefs(defs ...[]metricDef) error {
	seen := map[string]bool{}
	for _, group := range defs {
		for _, d := range group {
			if !metricName.MatchString(d.name) {
				return fmt.Errorf("metric name %q is malformed", d.name)
			}
			if seen[d.name] {
				return fmt.Errorf("metric name %q is declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
	return nil
}

// metricValue is one reported number, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values against a declaration list.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, values: map[string]metricValue{}}
	for _, d := range defs {
		m.defs[d.name] = d
	}
	return m
}

// set records a value; an undeclared or repeated name is a bug in this
// program, not a property of the run.
func (m *metricSet) set(name string, v float64) {
	d, ok := m.defs[name]
	if !ok {
		panic("bench: metric " + name + " is not declared")
	}
	if _, dup := m.values[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	m.values[name] = metricValue{Value: v, Unit: d.unit}
}

// missing lists declared metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
