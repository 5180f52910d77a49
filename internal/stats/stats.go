// Package stats provides the statistical machinery of the paper's
// evaluation: the Leveugle et al. sample-size formula that yields the 1,068
// trials per configuration (§5.3), Pearson chi-squared tests of homogeneity
// on outcome contingency tables (§5.4.2, Table 5), and Wilson score
// confidence intervals for the outcome-proportion plots (Figure 4). All
// special functions are implemented from scratch on the standard library.
package stats

import (
	"fmt"
	"math"
)

// SampleSize computes the number of fault-injection samples required for a
// margin of error e at the given confidence z-score over a population of N
// possible faults, assuming worst-case p = 0.5 (Leveugle et al., DATE'09):
//
//	n = N / (1 + e²·(N−1)/(z²·p·(1−p)))
//
// With N → ∞, e = 0.03 and 95% confidence (z = 1.96) this gives 1,068 — the
// paper's per-configuration trial count.
func SampleSize(population int64, marginOfError, z float64) int {
	if population <= 0 {
		return 0
	}
	const p = 0.5
	N := float64(population)
	n := N / (1 + marginOfError*marginOfError*(N-1)/(z*z*p*(1-p)))
	return int(math.Ceil(n))
}

// Z95 is the two-sided 95% confidence z-score.
const Z95 = 1.959963984540054

// WilsonCI returns the Wilson score interval for k successes in n trials at
// z-score z. It is well-behaved for proportions near 0 and 1, where the
// normal approximation fails (several benchmark outcomes sit at 0%).
func WilsonCI(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// ChiSquared performs Pearson's chi-squared test of homogeneity on an r×c
// contingency table of observed frequencies (rows = tools, columns = outcome
// categories). All-zero columns are dropped (they carry no information and
// would produce division by zero — e.g. benchmarks with zero SOC outcomes
// across all tools). It returns the statistic, the degrees of freedom and
// the p-value.
func ChiSquared(table [][]int64) (stat float64, df int, p float64, err error) {
	rows := len(table)
	if rows < 2 {
		return 0, 0, 0, fmt.Errorf("stats: need at least 2 rows")
	}
	cols := len(table[0])
	for _, r := range table {
		if len(r) != cols {
			return 0, 0, 0, fmt.Errorf("stats: ragged table")
		}
	}

	// Drop all-zero columns.
	var keep []int
	for c := 0; c < cols; c++ {
		sum := int64(0)
		for r := 0; r < rows; r++ {
			sum += table[r][c]
		}
		if sum > 0 {
			keep = append(keep, c)
		}
	}
	if len(keep) < 2 {
		return 0, 0, 0, fmt.Errorf("stats: fewer than 2 informative columns")
	}

	rowTot := make([]float64, rows)
	colTot := make([]float64, len(keep))
	var grand float64
	for r := 0; r < rows; r++ {
		for j, c := range keep {
			v := float64(table[r][c])
			rowTot[r] += v
			colTot[j] += v
			grand += v
		}
	}
	if grand == 0 {
		return 0, 0, 0, fmt.Errorf("stats: empty table")
	}
	for r := 0; r < rows; r++ {
		if rowTot[r] == 0 {
			return 0, 0, 0, fmt.Errorf("stats: empty row %d", r)
		}
	}

	for r := 0; r < rows; r++ {
		for j := range keep {
			expected := rowTot[r] * colTot[j] / grand
			d := float64(table[r][keep[j]]) - expected
			stat += d * d / expected
		}
	}
	df = (rows - 1) * (len(keep) - 1)
	p = ChiSquaredSurvival(stat, df)
	return stat, df, p, nil
}

// ChiSquaredSurvival returns P(X ≥ x) for a chi-squared distribution with df
// degrees of freedom: the regularized upper incomplete gamma Q(df/2, x/2).
func ChiSquaredSurvival(x float64, df int) float64 {
	if x <= 0 {
		return 1
	}
	return upperGamma(float64(df)/2, x/2)
}

// upperGamma computes the regularized upper incomplete gamma function
// Q(a, x) using the series expansion for x < a+1 and the continued fraction
// otherwise (Numerical Recipes §6.2).
func upperGamma(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 1
	case x < a+1:
		return 1 - lowerSeries(a, x)
	default:
		return upperCF(a, x)
	}
}

// lowerSeries computes P(a,x) by series expansion.
func lowerSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// upperCF computes Q(a,x) by modified Lentz continued fraction.
func upperCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// DefaultBatch is the sequential-stopping evaluation stride: precision is
// re-evaluated only when the delivered in-order trial count crosses a
// multiple of this, so the stop index is a pure function of the delivered
// prefix — identical across serial, scheduled, sharded, cached and resumed
// executions.
const DefaultBatch = 64

// Sequential is a sequential Wilson-CI stopping rule: a campaign may stop
// once every outcome class's 95% Wilson score interval has half-width ≤
// Margin. Decisions are only taken at DefaultBatch boundaries (Boundary) so
// the stopping index is deterministic regardless of trial execution order.
type Sequential struct {
	// Margin is the target CI half-width (e.g. 0.03 for ±3%).
	Margin float64
}

// Boundary reports whether n delivered trials is a decision point.
func (s Sequential) Boundary(n int) bool {
	return n > 0 && n%DefaultBatch == 0
}

// Satisfied reports whether every outcome class's Wilson interval over n
// trials has half-width at most Margin. counts holds one class's trial
// count per element; they need not sum to n (classes may be a subset).
func (s Sequential) Satisfied(n int, counts []int) bool {
	if n <= 0 {
		return false
	}
	for _, k := range counts {
		lo, hi := WilsonCI(k, n, Z95)
		if (hi-lo)/2 > s.Margin {
			return false
		}
	}
	return true
}

// Stop reports whether a campaign may stop after n in-order delivered
// trials: n is a batch boundary and every class meets the target precision.
func (s Sequential) Stop(n int, counts []int) bool {
	return s.Boundary(n) && s.Satisfied(n, counts)
}

// TestResult is the outcome of one Table 5 cell.
type TestResult struct {
	App      string
	BaseTool string
	CmpTool  string
	Stat     float64
	DF       int
	P        float64
	// Significant is true when p < alpha: the tools sample significantly
	// different outcome distributions.
	Significant bool
}

// Alpha is the paper's significance level (§5.4.2).
const Alpha = 0.05

// CompareCounts runs the chi-squared test on a 2×3 contingency table of
// outcome counts (crash / SOC / benign), producing one Table 5 cell (the
// per-app verdict of cmpTool vs baseTool). The paper's Table 4 shows one
// such contingency table as a worked example; the test itself fills
// Table 5.
func CompareCounts(app, baseTool, cmpTool string, base, cmp [3]int64) (TestResult, error) {
	stat, df, p, err := ChiSquared([][]int64{cmp[:], base[:]})
	if err != nil {
		return TestResult{}, err
	}
	return TestResult{
		App: app, BaseTool: baseTool, CmpTool: cmpTool,
		Stat: stat, DF: df, P: p, Significant: p < Alpha,
	}, nil
}
