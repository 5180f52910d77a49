package campaign

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase throughput accounting: a Cache's counters of executed VM
// instructions and wall time, split by campaign phase — profiling (golden
// runs) versus trials. BuildAndProfile wires them into the builds and Binary
// handles it returns; a Binary built outside a cache counts nowhere. They
// feed fi-campaign's `# speed:` and `# host:` lines (a shard pool sums its
// workers', shipped on every range ack); nothing deterministic reads them,
// which is why the wall-clock reads below carry //fi:wallclock-ok.

// phaseCounters are one cache's counters; the trial counters are kept per
// tool name, so a driver can put the host's time per tool beside the model's.
type phaseCounters struct {
	profInstrs, profNanos atomic.Int64

	mu     sync.Mutex
	byTool map[string]*trialCounters
}

type trialCounters struct{ trials, rejoined, instrs, skipped, pruned, nanos atomic.Int64 }

// tool returns the named tool's trial counters, created on first use.
func (p *phaseCounters) tool(name string) *trialCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.byTool[name]
	if c == nil {
		c = new(trialCounters)
		p.byTool[name] = c
	}
	return c
}

// Phases returns the cache's phase counters.
func (c *Cache) Phases() PhaseStats {
	p := &c.phases
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PhaseStats{ProfileInstrs: p.profInstrs.Load(), ProfileNanos: p.profNanos.Load(),
		TrialByTool: make(map[string]TrialPhase, len(p.byTool))}
	for tool, t := range p.byTool {
		s.TrialByTool[tool] = TrialPhase{Trials: t.trials.Load(), Rejoined: t.rejoined.Load(), Instrs: t.instrs.Load(),
			Skipped: t.skipped.Load(), Pruned: t.pruned.Load(), Nanos: t.nanos.Load()}
	}
	return s
}

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

func (t TrialPhase) plus(o TrialPhase) TrialPhase {
	return TrialPhase{Trials: t.Trials + o.Trials, Rejoined: t.Rejoined + o.Rejoined, Instrs: t.Instrs + o.Instrs,
		Skipped: t.Skipped + o.Skipped, Pruned: t.Pruned + o.Pruned, Nanos: t.Nanos + o.Nanos}
}

// PhaseStats is a snapshot of the phase counters. The profile phase is every
// golden pass: a binary's profile run and the replay its anchors are captured
// on. TrialByTool is keyed by Tool.Name().
type PhaseStats struct {
	ProfileInstrs int64
	ProfileNanos  int64
	TrialByTool   map[string]TrialPhase
}

// Add accumulates o into s: the cross-process total of a shard fleet's
// caches.
func (s *PhaseStats) Add(o PhaseStats) {
	s.ProfileInstrs += o.ProfileInstrs
	s.ProfileNanos += o.ProfileNanos
	if s.TrialByTool == nil {
		s.TrialByTool = make(map[string]TrialPhase, len(o.TrialByTool))
	}
	for tool, t := range o.TrialByTool {
		s.TrialByTool[tool] = s.TrialByTool[tool].plus(t)
	}
}

// Trials sums the trial counters over the tools.
func (s PhaseStats) Trials() (all TrialPhase) {
	for _, t := range s.TrialByTool { //fi:ordered — a sum
		all = all.plus(t)
	}
	return all
}

// SkippedShare is the share of the trials' architectural instructions that
// was not executed because the trial started from an anchor (zero before any
// trial has run).
func (s PhaseStats) SkippedShare() float64 {
	t := s.Trials()
	if total := t.Instrs + t.Skipped + t.Pruned; total > 0 {
		return float64(t.Skipped) / float64(total)
	}
	return 0
}

// RejoinedShare is the share of the trials that were finished at an anchor
// they had rejoined the golden run at (zero before any trial has run).
func (s PhaseStats) RejoinedShare() float64 {
	t := s.Trials()
	return float64(t.Rejoined) / float64(max(t.Trials, 1))
}

// InstrsPerSec returns the phase throughputs in instructions per second
// (zero when a phase has not run).
func (s PhaseStats) InstrsPerSec() (profile, trial float64) {
	if s.ProfileNanos > 0 {
		profile = float64(s.ProfileInstrs) / (float64(s.ProfileNanos) / 1e9)
	}
	if t := s.Trials(); t.Nanos > 0 {
		trial = float64(t.Instrs) / (float64(t.Nanos) / 1e9)
	}
	return profile, trial
}

// phaseStart timestamps the beginning of a timed phase section.
func phaseStart() time.Time {
	return time.Now() //fi:wallclock-ok — diagnostic throughput only; never feeds outcomes or tables
}

// noteProfile credits a golden pass (a profile run, an anchor capture) to the
// cache's counters; nil for a build made outside a cache.
func (p *phaseCounters) noteProfile(instrs int64, start time.Time) {
	if p == nil {
		return
	}
	p.profInstrs.Add(instrs)
	p.profNanos.Add(int64(time.Since(start))) //fi:wallclock-ok — diagnostic throughput only; never feeds outcomes or tables
}

// note credits one trial run to its tool's counters: the instructions it
// executed, its start state skipped and its tail spared it. c is nil for a
// binary built outside a cache.
func (c *trialCounters) note(executed, skipped int64, tail *Tail, start time.Time) {
	if c == nil {
		return
	}
	c.trials.Add(1)
	c.instrs.Add(executed)
	c.skipped.Add(skipped)
	if tail.rejoined {
		c.rejoined.Add(1)
		c.pruned.Add(tail.instrs)
	}
	c.nanos.Add(int64(time.Since(start))) //fi:wallclock-ok — diagnostic throughput only; never feeds outcomes or tables
}
