package shard

import "time"

// SetDeadlines fixes p's silent-worker deadline at stall, with no scale-up
// from the trial budget, and its terminate→kill grace, so a chaos test can
// wait out a hung worker in seconds. The scale-up has to be skipped for that:
// CG/REFINE's trial budget (24.6 M instructions) at the slowInstrPerSec floor
// is a 2.9 s deadline, over the hang test's 1.2 s. Call it before Run.
func SetDeadlines(p *Pool, stall, grace time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stall, p.stallFixed, p.grace = stall, true, grace
}
