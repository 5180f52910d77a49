package stats_test

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// Golden values for the special functions, pinned tightly against external
// references so a regression in upperGamma's series/continued-fraction
// implementation can't hide inside a loose tolerance.

func TestChiSquaredSurvivalGolden(t *testing.T) {
	cases := []struct {
		name string
		x    float64
		df   int
		want float64
		tol  float64
	}{
		// Q(x, df=1) = erfc(sqrt(x/2)); x = z² for the two-sided normal
		// quantile, so the 95% critical value is Z95² exactly.
		{"crit95 df1", stats.Z95 * stats.Z95, 1, 0.05, 1e-9},
		{"crit95 df1 rounded", 3.84, 1, 0.050043521248705195, 1e-12}, // erfc(sqrt(1.92))
		{"crit99 df1", 6.6348966010212145, 1, 0.01, 1e-9},
		// df=2 is closed-form: Q(x, 2) = exp(-x/2); 2·ln(20) gives 0.05 exactly.
		{"crit95 df2", 2 * math.Log(20), 2, 0.05, 1e-12},
		{"exp df2", 7.0, 2, math.Exp(-3.5), 1e-12},
		// Series branch (x/2 < df/2+1) at an erfc-checkable point:
		// Q(0.5, 1) = erfc(sqrt(0.25)) = erfc(0.5).
		{"series df1", 0.5, 1, math.Erfc(0.5), 1e-12},
		// Continued-fraction branch, deep tail (R: pchisq(30,1,lower=F)).
		{"tail df1", 30, 1, 4.320463057827611e-08, 1e-18},
		// Larger df, series branch. Even df is closed-form:
		// Q(x, 10) = e^{-x/2} Σ_{k<5} (x/2)^k/k!.
		{"series df10", 3, 10, 0.9814240637778591, 1e-12},
		{"zero", 0, 1, 1, 0},
		{"negative", -1, 5, 1, 0},
	}
	for _, c := range cases {
		got := stats.ChiSquaredSurvival(c.x, c.df)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: Q(%v, df=%d) = %.17g, want %.17g ± %g",
				c.name, c.x, c.df, got, c.want, c.tol)
		}
	}
}

func TestSampleSizeGolden(t *testing.T) {
	cases := []struct {
		name string
		pop  int64
		want int
	}{
		// Finite-population edge cases of the Leveugle formula at the
		// paper's operating point (e = 0.03, 95% confidence).
		{"single fault", 1, 1},
		{"tiny", 2, 2},
		{"self-referential 1068", 1068, 535},
		{"huge -> paper count", 1 << 40, 1068},
		{"empty", 0, 0},
		{"negative", -7, 0},
	}
	for _, c := range cases {
		if got := stats.SampleSize(c.pop, 0.03, stats.Z95); got != c.want {
			t.Errorf("%s: SampleSize(%d) = %d, want %d", c.name, c.pop, got, c.want)
		}
	}
	// The infinite-population count is a fixed point: sampling more than
	// 1068 from any larger population never helps at this precision.
	for _, pop := range []int64{1 << 20, 1 << 30, math.MaxInt64} {
		if got := stats.SampleSize(pop, 0.03, stats.Z95); got > 1068 {
			t.Errorf("SampleSize(%d) = %d > 1068", pop, got)
		}
	}
}

func TestSequentialBoundary(t *testing.T) {
	var s stats.Sequential // the stride is always DefaultBatch
	for _, n := range []int{0, 1, 63, 65, 100} {
		if s.Boundary(n) {
			t.Errorf("Boundary(%d) = true with default batch", n)
		}
	}
	for _, n := range []int{64, 128, 64 * 17} {
		if !s.Boundary(n) {
			t.Errorf("Boundary(%d) = false with default batch", n)
		}
	}
}

func TestSequentialSatisfied(t *testing.T) {
	s := stats.Sequential{Margin: 0.03}
	if s.Satisfied(0, []int{0}) {
		t.Error("Satisfied with zero trials")
	}
	// n=100 is far too few for a ±3% interval on p≈0.5.
	if s.Satisfied(100, []int{50, 30, 20}) {
		t.Error("Satisfied(100) at margin 0.03")
	}
	// n=1068 is the paper's design point: every class fits in ±3%.
	if !s.Satisfied(1068, []int{534, 300, 234}) {
		t.Error("not Satisfied(1068) at margin 0.03")
	}
	// A wider margin is satisfied sooner.
	w := stats.Sequential{Margin: 0.10}
	if !w.Satisfied(128, []int{64, 40, 24}) {
		t.Error("not Satisfied(128) at margin 0.10")
	}
	// The binding class is the one nearest p=0.5, where the interval is
	// widest: extreme proportions alone satisfy earlier.
	if !s.Satisfied(256, []int{0, 256}) {
		t.Error("degenerate proportions should satisfy at n=256, margin 0.03")
	}
}

func TestSequentialStop(t *testing.T) {
	s := stats.Sequential{Margin: 0.10}
	// Satisfied but off-boundary must not stop: the decision points are
	// what make the stop index order-independent.
	if s.Stop(130, []int{65, 40, 25}) {
		t.Error("stopped off batch boundary")
	}
	if !s.Stop(128, []int{64, 40, 24}) {
		t.Error("did not stop at satisfied boundary")
	}
	tight := stats.Sequential{Margin: 0.001}
	if tight.Stop(128, []int{64, 40, 24}) {
		t.Error("stopped before precision reached")
	}
}
