package stats_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// TestSampleSizeMatchesPaper ties campaign.PaperTrials, the n every driver
// defaults to, to its derivation: §5.3's 3% margin and 95% confidence over
// a huge fault population.
func TestSampleSizeMatchesPaper(t *testing.T) {
	n := stats.SampleSize(1<<40, 0.03, stats.Z95)
	if n != campaign.PaperTrials {
		t.Fatalf("SampleSize = %d, want campaign.PaperTrials = %d", n, campaign.PaperTrials)
	}
}

func TestSampleSizeSmallPopulation(t *testing.T) {
	// For tiny populations the formula approaches exhaustive sampling.
	n := stats.SampleSize(100, 0.03, stats.Z95)
	if n < 90 || n > 100 {
		t.Fatalf("SampleSize(100) = %d", n)
	}
	if stats.SampleSize(0, 0.03, stats.Z95) != 0 {
		t.Fatalf("empty population must need 0 samples")
	}
}

func TestSampleSizeMonotonic(t *testing.T) {
	err := quick.Check(func(a, b uint32) bool {
		x, y := int64(a%1_000_000)+1, int64(b%1_000_000)+1
		if x > y {
			x, y = y, x
		}
		return stats.SampleSize(x, 0.03, stats.Z95) <= stats.SampleSize(y, 0.03, stats.Z95)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestChiSquaredSurvivalKnownValues(t *testing.T) {
	cases := []struct {
		x    float64
		df   int
		want float64
	}{
		{5.991, 2, 0.05}, // 95th percentile, df=2
		{9.210, 2, 0.01}, // 99th percentile, df=2
		{3.841, 1, 0.05}, // 95th percentile, df=1
		{0, 2, 1.0},      // zero statistic
		{13.816, 2, 0.001},
	}
	for _, c := range cases {
		got := stats.ChiSquaredSurvival(c.x, c.df)
		if math.Abs(got-c.want) > 0.001 {
			t.Errorf("Q(%v, df=%d) = %v, want ≈ %v", c.x, c.df, got, c.want)
		}
	}
}

func TestChiSquaredSurvivalMonotonic(t *testing.T) {
	err := quick.Check(func(a, b uint16) bool {
		x, y := float64(a)/100, float64(b)/100
		if x > y {
			x, y = y, x
		}
		return stats.ChiSquaredSurvival(x, 2) >= stats.ChiSquaredSurvival(y, 2)-1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestChiSquaredTable4(t *testing.T) {
	// The paper's Table 4 (AMG2013): LLFI vs PINFI must come out
	// overwhelmingly significant (Table 5 reports p ≈ 0).
	res, err := stats.CompareCounts("AMG2013", "PINFI", "LLFI",
		[3]int64{269, 70, 729}, [3]int64{395, 168, 505})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant {
		t.Fatalf("Table 4 comparison not significant: p=%v", res.P)
	}
	if res.P > 1e-10 {
		t.Fatalf("p-value %v, paper reports ≈ 0", res.P)
	}
	if res.DF != 2 {
		t.Fatalf("df = %d, want 2", res.DF)
	}
}

func TestChiSquaredRefineVsPinfiAMG(t *testing.T) {
	// Table 6 REFINE vs PINFI (AMG2013): paper reports p = 0.40.
	res, err := stats.CompareCounts("AMG2013", "PINFI", "REFINE",
		[3]int64{269, 70, 729}, [3]int64{254, 87, 727})
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant {
		t.Fatalf("REFINE vs PINFI wrongly significant: p=%v", res.P)
	}
	// Paper reports p = 0.40; plain Pearson (no continuity correction) on the
	// same table gives 0.32 — same conclusion, so accept the neighborhood.
	if res.P < 0.2 || res.P > 0.6 {
		t.Fatalf("p = %v, expected in [0.2, 0.6] (paper: 0.40)", res.P)
	}
}

func TestChiSquaredIdenticalRows(t *testing.T) {
	stat, _, p, err := stats.ChiSquared([][]int64{{100, 50, 25}, {100, 50, 25}})
	if err != nil {
		t.Fatal(err)
	}
	if stat != 0 || p < 0.999 {
		t.Fatalf("identical rows: stat=%v p=%v", stat, p)
	}
}

func TestChiSquaredDropsZeroColumns(t *testing.T) {
	// CG-style table: zero SOC everywhere (paper Table 6, CG rows).
	stat, df, p, err := stats.ChiSquared([][]int64{{352, 0, 716}, {175, 0, 893}})
	if err != nil {
		t.Fatal(err)
	}
	if df != 1 {
		t.Fatalf("df = %d, want 1 after dropping empty column", df)
	}
	if p > stats.Alpha {
		t.Fatalf("CG LLFI-vs-PINFI should be significant, p=%v stat=%v", p, stat)
	}
}

func TestChiSquaredErrors(t *testing.T) {
	if _, _, _, err := stats.ChiSquared([][]int64{{1, 2, 3}}); err == nil {
		t.Fatal("single row accepted")
	}
	if _, _, _, err := stats.ChiSquared([][]int64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged table accepted")
	}
	if _, _, _, err := stats.ChiSquared([][]int64{{0, 0}, {0, 0}}); err == nil {
		t.Fatal("empty table accepted")
	}
	if _, _, _, err := stats.ChiSquared([][]int64{{0, 0, 5}, {0, 0, 7}}); err == nil {
		t.Fatal("single informative column accepted")
	}
}

func TestWilsonCI(t *testing.T) {
	lo, hi := stats.WilsonCI(50, 100, stats.Z95)
	if lo > 0.5 || hi < 0.5 {
		t.Fatalf("CI [%v,%v] must contain point estimate", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("CI too wide for n=100: [%v,%v]", lo, hi)
	}
	// Degenerate proportions stay in [0,1].
	lo, hi = stats.WilsonCI(0, 1068, stats.Z95)
	if lo > 1e-9 || hi > 0.01 {
		t.Fatalf("zero-count CI [%v,%v]", lo, hi)
	}
	lo, hi = stats.WilsonCI(1068, 1068, stats.Z95)
	if hi < 1-1e-9 || lo < 0.99 {
		t.Fatalf("full-count CI [%v,%v]", lo, hi)
	}
}

func TestWilsonCIProperties(t *testing.T) {
	err := quick.Check(func(k16, n16 uint16) bool {
		n := int(n16%2000) + 1
		k := int(k16) % (n + 1)
		lo, hi := stats.WilsonCI(k, n, stats.Z95)
		p := float64(k) / float64(n)
		return lo >= 0 && hi <= 1 && lo <= p+1e-12 && hi >= p-1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMarginOfErrorAt1068(t *testing.T) {
	// With n = 1068 the half-width of a 95% CI is at most ~3% — the design
	// point of the paper's sampling methodology.
	lo, hi := stats.WilsonCI(534, 1068, stats.Z95)
	if half := (hi - lo) / 2; half > 0.0305 {
		t.Fatalf("margin at n=1068 is %v, want ≤ 3%%", half)
	}
}
