package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10}
	if got := Mean(xs); got != 4 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Median(xs); got != 3 {
		t.Fatalf("Median = %v", got)
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty-slice stats should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max should be infinities")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 0); got != 0 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2.5 {
		t.Fatalf("p25 = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Percentile mutated input")
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 4})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {5, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	if got := c.Quantile(0.5); got != 20 {
		t.Fatalf("Q(0.5) = %v", got)
	}
	if got := c.Quantile(1); got != 40 {
		t.Fatalf("Q(1) = %v", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Fatalf("Q(0) = %v", got)
	}
	if got := c.Quantile(0.26); got != 20 {
		t.Fatalf("Q(0.26) = %v", got)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("last point Y = %v, want 1", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y <= pts[i-1].Y {
			t.Fatal("points not monotone")
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileAtInverse(t *testing.T) {
	// Property: At(Quantile(q)) >= q for sample data.
	f := func(seed int64) bool {
		xs := []float64{float64(seed % 97), 3, 1, 4, 1, 5, 9, 2, 6}
		c := NewCDF(xs)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			if c.At(c.Quantile(q)) < q-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Table 1: test", Header: []string{"Cloud", "Bytes"}}
	tb.AddRow("EC2", 81.73)
	tb.AddRow("Azure", 18.27)
	s := tb.String()
	if !strings.Contains(s, "Table 1: test") {
		t.Fatal("missing title")
	}
	if !strings.Contains(s, "81.73") || !strings.Contains(s, "Azure") {
		t.Fatalf("missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	// Columns align: "Bytes" starts at same offset in header and rows.
	off := strings.Index(lines[1], "Bytes")
	if !strings.HasPrefix(lines[3][off:], "81.73") {
		t.Fatalf("misaligned columns:\n%s", s)
	}
}

func TestPctFrac(t *testing.T) {
	if got := Pct(1, 4); got != "25.0%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := Pct(1, 0); got != "0.0%" {
		t.Fatalf("Pct zero whole = %q", got)
	}
	if Frac(3, 4) != 0.75 || Frac(1, 0) != 0 {
		t.Fatal("Frac wrong")
	}
}

func TestCDFQuantileMatchesSorted(t *testing.T) {
	xs := []float64{9, 7, 5, 3, 1}
	c := NewCDF(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, q := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		if got := c.Quantile(q); got != sorted[i] {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, sorted[i])
		}
	}
}
