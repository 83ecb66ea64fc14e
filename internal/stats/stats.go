// Package stats provides the summary statistics the measurement analyses
// report: empirical CDFs, percentiles, means, histograms, and aligned
// text tables matching the layout of the paper's tables and figure
// series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It copies xs; the input is not
// modified. An empty slice yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDF is an empirical cumulative distribution function over observed
// samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds an ECDF from samples (copied, then sorted).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// SearchFloat64s returns the first index >= x; advance past equals.
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the smallest sample x with P(X <= x) >= q, for q in
// (0, 1]. Quantile(0) returns the smallest sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Points returns up to n (x, P(X<=x)) pairs evenly spaced through the
// sample set, suitable for plotting the CDF curve a figure reports.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([]Point, 0, n)
	for k := 1; k <= n; k++ {
		i := k*len(c.sorted)/n - 1
		pts = append(pts, Point{X: c.sorted[i], Y: float64(i+1) / float64(len(c.sorted))})
	}
	return pts
}

// Point is one (x, y) sample of a figure series.
type Point struct{ X, Y float64 }

// Series is a named sequence of points, one line in a figure.
type Series struct {
	Name   string
	Points []Point
}

// Table is an aligned text table with a title, matching the presentation
// of the paper's numbered tables.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells formatted with fmt.Sprint.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b []byte
	if t.Title != "" {
		b = append(b, t.Title...)
		b = append(b, '\n')
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			b = append(b, fmt.Sprintf("%-*s", widths[i]+2, cell)...)
		}
		b = append(b, '\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		for i := 0; i < total; i++ {
			b = append(b, '-')
		}
		b = append(b, '\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return string(b)
}

// Pct formats part/whole as a percentage string like "12.3%". A zero
// whole yields "0.0%".
func Pct(part, whole float64) string {
	if whole == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*part/whole)
}

// Frac returns part/whole, or 0 when whole is 0.
func Frac(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
