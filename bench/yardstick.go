package main

import (
	"sync"
	"time"
)

// The yardstick is a fixed piece of work that shares no code with the program
// under test, timed before and after every round and every set-up sample.
// The box this benchmark runs on changes speed by a quarter or more for ten
// minutes at a time (README.md, "Noise and the estimator"); ten runs of one
// commit that straddle such a change spread past any bound the contract
// allows, whatever the run length or the estimator. The yardstick moves with
// those changes — run-level correlation with the workloads' rates 0.9 and
// better — so every time the benchmark reports is scaled by it to the speed
// of a reference machine: one that runs the yardstick in yardRefSeconds.
//
// The work is a pseudo-random walk with a data-dependent four-way branch over
// four tables of 64 KiB to 4 MiB, read-only: the shape of an interpreter's
// loads, sized to sit in each level of the cache in turn. One table alone
// tracked worse: the small ones miss what a busy neighbour does to the shared
// cache, the large one overstates it.
const yardRefSeconds = 0.060 // the sizing box on a quiet day, two threads, to the nearest 10 ms

// yardTables are the table sizes in 8-byte words and the steps walked over
// each: about 60 ms in all, under a tenth of a round.
var yardTables = [...]struct{ words, steps int }{
	{1 << 13, 1_500_000},
	{1 << 15, 1_500_000},
	{1 << 17, 1_500_000},
	{1 << 19, 1_000_000},
}

// yardstick holds one set of tables per thread, so threads share nothing.
type yardstick struct {
	tables [][][]uint64
	sums   []uint64 // per thread: keeps the walk's result alive
}

func newYardstick(threads int) *yardstick {
	y := &yardstick{tables: make([][][]uint64, threads), sums: make([]uint64, threads)}
	x := uint64(0x9E3779B97F4A7C15)
	for t := range y.tables {
		for _, tab := range yardTables {
			m := make([]uint64, tab.words)
			for i := range m {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				m[i] = x
			}
			y.tables[t] = append(y.tables[t], m)
		}
	}
	return y
}

// walk is the kernel: steps xorshift-addressed visits to mem, each doing one
// of four things chosen by the word it lands on.
func walk(mem []uint64, steps int) uint64 {
	mask := uint64(len(mem) - 1)
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		switch mem[j] & 3 {
		case 0:
			acc += mem[j]
		case 2:
			acc ^= mem[(j+acc)&mask]
		default:
			acc = acc*31 + j
		}
	}
	return acc
}

// sample runs the yardstick once on every thread at the same time and returns
// the wall seconds it took.
func (y *yardstick) sample() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for t := range y.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, tab := range yardTables {
				y.sums[t] += walk(y.tables[t][k], tab.steps)
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// speed is the machine's speed between two yardstick samples, as a multiple
// of the reference machine's.
func speed(before, after float64) float64 {
	return yardRefSeconds / ((before + after) / 2)
}
