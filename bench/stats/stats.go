// Package stats holds the order statistics and the rank test the
// benchmark uses to summarize its samples and to compare two sets of
// runs. It is written in-repo so the benchmark needs nothing beyond the
// standard library.
package stats

import (
	"math"
	"slices"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified. It returns NaN for no
// samples.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(len(s), p)]
}

// rank is the 0-based nearest-rank index of the p-th percentile of n
// sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// Beyond reports how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func Beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// TailLadder is the ladder of percentiles a tail is read from, starting
// at the median.
var TailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// TailPercentile returns the highest percentile of TailLadder that has
// at least minBeyond of n samples beyond it; the median when even it has
// fewer.
func TailPercentile(n, minBeyond int) float64 {
	best := TailLadder[0]
	for _, p := range TailLadder[1:] {
		if Beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// Median returns the middle sample (the mean of the two middle samples
// for an even count), or NaN for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points dividing xs into four groups,
// computed like Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, so spreads reported here match that reference. It
// needs at least two samples; with fewer it returns NaNs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile range of xs as a share of its median.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	return (q3 - q1) / q2
}

// MannWhitney runs the two-sided Mann–Whitney U test on samples x and y
// and returns U for x and the p-value of the hypothesis that both come
// from one distribution. Without ties and for small samples the p-value
// is exact; otherwise it uses the normal approximation with tie and
// continuity corrections.
func MannWhitney(x, y []float64) (u, p float64) {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	type obs struct {
		v    float64
		inX  bool
		rank float64
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range x {
		all = append(all, obs{v: v, inX: true})
	}
	for _, v := range y {
		all = append(all, obs{v: v})
	}
	slices.SortFunc(all, func(a, b obs) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	// Average ranks over runs of ties; tieTerm accumulates Σ(t³ - t).
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		r := float64(i+j+1) / 2 // mean of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			all[k].rank = r
		}
		if t := float64(j - i); t > 1 {
			tieTerm += t*t*t - t
		}
		i = j
	}
	var r1 float64
	for _, o := range all {
		if o.inX {
			r1 += o.rank
		}
	}
	u = r1 - float64(n1*(n1+1))/2
	if tieTerm == 0 && n1*n2 <= 400 {
		return u, exactP(n1, n2, u)
	}
	N := float64(n1 + n2)
	mean := float64(n1*n2) / 2
	sd := math.Sqrt(float64(n1*n2) / 12 * (N + 1 - tieTerm/(N*(N-1))))
	if sd == 0 {
		return u, 1
	}
	z := (math.Abs(u-mean) - 0.5) / sd
	return u, min(1, math.Erfc(max(z, 0)/math.Sqrt2))
}

// exactP is the exact two-sided p-value of U = u for sample sizes n1,
// n2 without ties: twice the probability of a U at least as far from
// the mean, from the null distribution counted by dynamic programming.
func exactP(n1, n2 int, u float64) float64 {
	maxU := n1 * n2
	// After m rounds, cur[j][k] counts the orderings of j x values and m
	// y values whose U (pairs with the x above the y) is k.
	cur := make([][]float64, n1+1)
	for j := range cur {
		cur[j] = make([]float64, maxU+1)
		cur[j][0] = 1 // no y values yet
	}
	for m := 1; m <= n2; m++ {
		next := make([][]float64, n1+1)
		for j := range next {
			next[j] = make([]float64, maxU+1)
		}
		next[0][0] = 1
		for j := 1; j <= n1; j++ {
			for k := 0; k <= maxU; k++ {
				// The largest of the j+m values is either a y (U unchanged)
				// or an x (it beats all m y values).
				v := cur[j][k]
				if k >= m {
					v += next[j-1][k-m]
				}
				next[j][k] = v
			}
		}
		cur = next
	}
	dist := cur[n1]
	var total float64
	for _, c := range dist {
		total += c
	}
	mean := float64(maxU) / 2
	d := math.Abs(u - mean)
	var tail float64
	for k, c := range dist {
		if math.Abs(float64(k)-mean) >= d-1e-9 {
			tail += c
		}
	}
	return min(1, tail/total)
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
