package campaign

import (
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
// process accumulates its own).
var (
	profInstrs   atomic.Int64
	profNanos    atomic.Int64
	trialInstrs  atomic.Int64
	trialSkipped atomic.Int64
	trialNanos   atomic.Int64
)

// PhaseStats is a snapshot of the per-phase throughput counters. The profile
// phase is every golden pass: a binary's profile run and the replay its
// anchors are captured on. TrialInstrs counts the instructions trials
// executed and TrialSkipped the golden-prefix instructions their anchors
// spared them; the two add up to the sum of TrialResult.Instrs.
type PhaseStats struct {
	ProfileInstrs int64
	ProfileNanos  int64
	TrialInstrs   int64
	TrialSkipped  int64
	TrialNanos    int64
}

// SkippedShare is the share of the trials' architectural instructions that
// was not executed because the trial started from an anchor (zero before any
// trial has run).
func (s PhaseStats) SkippedShare() float64 {
	if total := s.TrialInstrs + s.TrialSkipped; total > 0 {
		return float64(s.TrialSkipped) / float64(total)
	}
	return 0
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
	return PhaseStats{
		ProfileInstrs: profInstrs.Load(),
		ProfileNanos:  profNanos.Load(),
		TrialInstrs:   trialInstrs.Load(),
		TrialSkipped:  trialSkipped.Load(),
		TrialNanos:    trialNanos.Load(),
	}
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

// noteTrialPhase credits one trial run to the throughput counters: the
// instructions it executed, and those its start state skipped.
func noteTrialPhase(executed, skipped int64, start time.Time) {
	trialInstrs.Add(executed)
	trialSkipped.Add(skipped)
	trialNanos.Add(int64(time.Since(start))) //fi:wallclock-ok — diagnostic throughput only; never feeds outcomes or tables
}
