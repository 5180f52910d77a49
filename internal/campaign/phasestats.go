package campaign

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase throughput accounting: process-wide counters of executed VM
// instructions and wall time, split by campaign phase — profiling (golden
// runs) versus trials. They feed the fi-* drivers' `# speed:` diagnostic
// line; nothing deterministic reads them, which is why the wall-clock reads
// below carry //fi:wallclock-ok
// (the timing never touches outcomes, records, cycles or tables — those stay
// pure functions of the seed).
//
// The counters cover work done by this process: a sharded campaign's
// coordinator reports only its own share, not its workers' (each worker
// process accumulates its own). The trial counters are kept per tool name,
// so a driver can put the host's time per tool beside the cycle model's.
var (
	profInstrs atomic.Int64
	profNanos  atomic.Int64

	trialByTool sync.Map // tool name → *trialCounters
)

type trialCounters struct{ trials, rejoined, instrs, skipped, pruned, nanos atomic.Int64 }

// TrialPhase is one tool's trial counters: Instrs counts the instructions
// its trials executed, Skipped the golden prefix their start anchors spared
// them and Pruned the golden tail the Rejoined of them were finished without
// (see Tail); the three add up to the sum of TrialResult.Instrs.
type TrialPhase struct {
	Trials   int64
	Rejoined int64
	Instrs   int64
	Skipped  int64
	Pruned   int64
	Nanos    int64
}

// PhaseStats is a snapshot of the per-phase throughput counters. The profile
// phase is every golden pass: a binary's profile run and the replay its
// anchors are captured on. TrialInstrs, TrialSkipped, TrialPruned and
// TrialNanos are the sums over TrialByTool, which is keyed by Tool.Name().
type PhaseStats struct {
	ProfileInstrs int64
	ProfileNanos  int64
	TrialInstrs   int64
	TrialSkipped  int64
	TrialPruned   int64
	TrialNanos    int64
	TrialByTool   map[string]TrialPhase
}

// SkippedShare is the share of the trials' architectural instructions that
// was not executed because the trial started from an anchor (zero before any
// trial has run).
func (s PhaseStats) SkippedShare() float64 {
	if total := s.TrialInstrs + s.TrialSkipped + s.TrialPruned; total > 0 {
		return float64(s.TrialSkipped) / float64(total)
	}
	return 0
}

// RejoinedShare is the share of the trials that were finished at an anchor
// they had rejoined the golden run at (zero before any trial has run).
func (s PhaseStats) RejoinedShare() float64 {
	var all TrialPhase
	for _, t := range s.TrialByTool {
		all.Trials += t.Trials
		all.Rejoined += t.Rejoined
	}
	return float64(all.Rejoined) / float64(max(all.Trials, 1))
}

// InstrsPerSec returns the phase throughputs in instructions per second
// (zero when a phase has not run).
func (s PhaseStats) InstrsPerSec() (profile, trial float64) {
	if s.ProfileNanos > 0 {
		profile = float64(s.ProfileInstrs) / (float64(s.ProfileNanos) / 1e9)
	}
	if s.TrialNanos > 0 {
		trial = float64(s.TrialInstrs) / (float64(s.TrialNanos) / 1e9)
	}
	return profile, trial
}

// ReadPhaseStats snapshots the process-wide phase counters.
func ReadPhaseStats() PhaseStats {
	s := PhaseStats{
		ProfileInstrs: profInstrs.Load(),
		ProfileNanos:  profNanos.Load(),
		TrialByTool:   make(map[string]TrialPhase),
	}
	trialByTool.Range(func(tool, v any) bool {
		c := v.(*trialCounters)
		t := TrialPhase{Trials: c.trials.Load(), Rejoined: c.rejoined.Load(), Instrs: c.instrs.Load(),
			Skipped: c.skipped.Load(), Pruned: c.pruned.Load(), Nanos: c.nanos.Load()}
		s.TrialByTool[tool.(string)] = t
		s.TrialInstrs += t.Instrs
		s.TrialSkipped += t.Skipped
		s.TrialPruned += t.Pruned
		s.TrialNanos += t.Nanos
		return true
	})
	return s
}

// phaseStart timestamps the beginning of a timed phase section.
func phaseStart() time.Time {
	return time.Now() //fi:wallclock-ok — diagnostic throughput only; never feeds outcomes or tables
}

// noteProfilePhase credits a golden pass (a profile run, an anchor capture)
// to the throughput counters.
func noteProfilePhase(instrs int64, start time.Time) {
	profInstrs.Add(instrs)
	profNanos.Add(int64(time.Since(start))) //fi:wallclock-ok — diagnostic throughput only; never feeds outcomes or tables
}

// noteTrialPhase credits one trial run to its tool's throughput counters: the
// instructions it executed, its start state skipped and its tail spared it.
func noteTrialPhase(tool string, executed, skipped int64, tail *Tail, start time.Time) {
	v, ok := trialByTool.Load(tool)
	if !ok {
		v, _ = trialByTool.LoadOrStore(tool, new(trialCounters))
	}
	c := v.(*trialCounters)
	c.trials.Add(1)
	c.instrs.Add(executed)
	c.skipped.Add(skipped)
	if tail.rejoined {
		c.rejoined.Add(1)
		c.pruned.Add(tail.instrs)
	}
	c.nanos.Add(int64(time.Since(start))) //fi:wallclock-ok — diagnostic throughput only; never feeds outcomes or tables
}
