package stats

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {20, 1}, {21, 2}, {50, 3}, {80, 4}, {81, 5}, {100, 5},
	} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("Percentile sorted its input in place")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of no samples is not NaN")
	}
}

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{6, 50},       // too few even for the median: fall back to it
		{39, 50},      // p75 would leave 9 beyond
		{40, 75},      // exactly 10 beyond p75
		{42, 75},      // cold-check's run count
		{48, 75},      // 12 beyond
		{100, 90},     // p90 leaves 10, p95 only 5
		{1000, 99},    // p99.9 leaves 1
		{12000, 99.9}, // a serve-hot window
	} {
		got := TailPercentile(c.n, 10)
		if got != c.want {
			t.Errorf("TailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if got > 50 && Beyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, got, Beyond(c.n, got))
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.1, 0.5, 2.2, 9.0, 4.4, 7.7, 1.0}, [3]float64{1.0, 3.1, 7.7}},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("Quartiles(%v)[%d] = %g, want %g", c.xs, i, got, c.want[i])
			}
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestMannWhitney(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{6, 7, 8, 9, 10}
	// Completely separated 5-vs-5 samples: U = 0 and the exact two-sided
	// p-value is 2 / C(10,5) = 2/252.
	u, p := MannWhitney(a, b)
	if u != 0 || math.Abs(p-2.0/252) > 1e-12 {
		t.Errorf("separated: U=%g p=%g, want 0 and %g", u, p, 2.0/252)
	}
	if u, _ := MannWhitney(b, a); u != 25 {
		t.Errorf("reversed: U=%g, want 25", u)
	}
	// Interleaved samples cannot be told apart.
	if _, p := MannWhitney([]float64{1, 3, 5, 7, 9}, []float64{2, 4, 6, 8, 10}); p < 0.5 {
		t.Errorf("interleaved: p=%g, want large", p)
	}
	// Ties take the normal approximation; identical samples give p = 1.
	if _, p := MannWhitney([]float64{1, 1, 2, 2}, []float64{1, 1, 2, 2}); math.Abs(p-1) > 1e-9 {
		t.Errorf("identical with ties: p=%g, want 1", p)
	}
	if _, p := MannWhitney([]float64{1, 1, 1, 2, 2, 2, 2, 2}, []float64{5, 5, 6, 6, 6, 7, 7, 7}); p > 0.01 {
		t.Errorf("separated with ties: p=%g, want small", p)
	}
}
