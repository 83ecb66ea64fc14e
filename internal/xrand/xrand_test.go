package xrand

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Intn(1000000) == b.Intn(1000000) {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("suspiciously correlated streams: %d/100 equal draws", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	p := New(7)
	a := p.Split("dns")
	b := New(7).Split("dns")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("Split not deterministic across identical parents")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	p := New(7)
	a := p.Split("dns")
	c := p.Split("cloud")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Intn(1<<30) == c.Intn(1<<30) {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("split streams correlated: %d matches", same)
	}
}

func TestSplitSeeded(t *testing.T) {
	a := SplitSeeded(9, "x")
	b := SplitSeeded(9, "x")
	if a.Int63() != b.Int63() {
		t.Fatal("SplitSeeded not deterministic")
	}
	c := SplitSeeded(9, "y")
	d := SplitSeeded(10, "x")
	if v := a.Int63(); v == c.Int63() && v == d.Int63() {
		t.Fatal("SplitSeeded ignores label/seed")
	}
}

func TestRange(t *testing.T) {
	rn := New(3)
	for i := 0; i < 1000; i++ {
		v := rn.Range(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("Range(5,9) = %d out of bounds", v)
		}
	}
	if got := rn.Range(4, 4); got != 4 {
		t.Fatalf("Range(4,4) = %d, want 4", got)
	}
}

func TestRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Range(5,4) did not panic")
		}
	}()
	New(1).Range(5, 4)
}

func TestBoolProbability(t *testing.T) {
	rn := New(11)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if rn.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) hit rate %.3f", frac)
	}
}

func TestParetoTail(t *testing.T) {
	rn := New(5)
	const alpha, xmin = 1.5, 10.0
	n, over := 200000, 0
	for i := 0; i < n; i++ {
		v := rn.Pareto(alpha, xmin)
		if v < xmin {
			t.Fatalf("Pareto below xmin: %f", v)
		}
		if v > 100 {
			over++
		}
	}
	// P(X>100) = (10/100)^1.5 ~= 0.0316.
	frac := float64(over) / float64(n)
	if math.Abs(frac-0.0316) > 0.01 {
		t.Fatalf("Pareto tail mass %.4f, want ~0.0316", frac)
	}
}

func TestLogNormalMedian(t *testing.T) {
	rn := New(6)
	n := 100000
	below := 0
	mu := 3.0
	for i := 0; i < n; i++ {
		if rn.LogNormal(mu, 1.2) < math.Exp(mu) {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("log-normal median off: %.3f below exp(mu)", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	rn := New(8)
	z := NewZipf(rn, 1000, 1.0)
	counts := make([]int, 1000)
	n := 200000
	for i := 0; i < n; i++ {
		r := z.Next()
		if r < 0 || r >= 1000 {
			t.Fatalf("Zipf rank %d out of range", r)
		}
		counts[r]++
	}
	if counts[0] < counts[9]*5 {
		t.Fatalf("rank 0 (%d) not dominant over rank 9 (%d)", counts[0], counts[9])
	}
	if z.N() != 1000 {
		t.Fatalf("N = %d", z.N())
	}
}

func TestWeighted(t *testing.T) {
	rn := New(10)
	w := NewWeighted(rn, []float64{0, 1, 3})
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[w.Next()]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("weight ratio %.2f, want ~3", ratio)
	}
}

func TestWeightedPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"negative": {1, -1},
		"zero-sum": {0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights did not panic", name)
				}
			}()
			NewWeighted(New(1), weights)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights did not panic Pick", name)
				}
			}()
			Pick(New(1), []int{0, 1}, weights)
		}()
	}
}

func TestPick(t *testing.T) {
	rn := New(12)
	got := Pick(rn, []string{"a", "b"}, []float64{1, 0})
	if got != "a" {
		t.Fatalf("Pick = %q, want a", got)
	}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[PickUniform(rn, []string{"x", "y", "z"})] = true
	}
	if len(seen) != 3 {
		t.Fatalf("PickUniform covered %d/3 choices", len(seen))
	}
}

// TestPickMatchesWeighted: Pick is the allocation-free form of
// NewWeighted(rn, weights).Next() and must return the same index for
// the same stream, including on zero weights and the clamp at the end.
func TestPickMatchesWeighted(t *testing.T) {
	tables := [][]float64{
		{1},
		{0, 1, 3},
		{1, 0, 0},
		{0.05, 0.15, 0.7, 0.1},
		{1, 1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5, 1.0 / 6, 1.0 / 7},
		{1e-300, 1e300, 1e-300},
	}
	for ti, weights := range tables {
		choices := make([]int, len(weights))
		for i := range choices {
			choices[i] = i
		}
		for seed := int64(0); seed < 500; seed++ {
			got := Pick(New(seed), choices, weights)
			want := NewWeighted(New(seed), weights).Next()
			if got != want {
				t.Fatalf("table %d seed %d: Pick = %d, NewWeighted = %d", ti, seed, got, want)
			}
		}
		rn := New(int64(ti))
		if a := testing.AllocsPerRun(100, func() { sinkInt += Pick(rn, choices, weights) }); a != 0 {
			t.Errorf("table %d: Pick allocates %.1f times per call, want 0", ti, a)
		}
	}
}

var (
	sinkInt   int
	sinkFloat float64
)

// mathRandSeeds returns math/rand's seed-canonicalization edges (zero,
// signs, multiples of the 2^31−1 modulus, the zero-seed replacement,
// the int64 extremes) followed by hashed seeds spread over int64.
func mathRandSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, m, -m, m - 1, -(m - 1), m + 1, -(m + 1),
		2 * m, -2 * m, 12345 * m, -12345 * m, math.MaxInt64 / m * m, math.MinInt64 / m * m,
		89482311, -89482311, 89482311 + m,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	for i := uint64(0); i < 300; i++ {
		seeds = append(seeds, int64(Hash64(i)))
	}
	return seeds
}

// compareMathRand draws n operations from got and want in the same
// mixed order — Int63, Uint64, Float64, Intn on both the 31- and
// 63-bit paths, NormFloat64, ExpFloat64 and Perm — reseeding both with
// reseed before operation reseedAt, and reports the first divergence.
func compareMathRand(got *Rand, want *rand.Rand, n, reseedAt int, reseed int64) error {
	for i := 0; i < n; i++ {
		if i == reseedAt {
			got.Reseed(reseed)
			want.Seed(reseed)
		}
		var g, w any
		switch i % 8 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.r.Uint64(), want.Uint64()
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 3:
			k := 1 + i*7919%100000
			g, w = got.Intn(k), want.Intn(k)
		case 4:
			k := 1<<40 + i
			g, w = got.Intn(k), want.Intn(k)
		case 5:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 6:
			g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
		case 7:
			k := 1 + i%17
			g, w = fmt.Sprint(got.Perm(k)), fmt.Sprint(want.Perm(k))
		}
		if g != w {
			return fmt.Errorf("operation %d (kind %d): got %v, math/rand %v", i, i%8, g, w)
		}
	}
	return nil
}

// TestNewMatchesMathRand pins New's source to math/rand's default
// source draw for draw, well past draw 273 where the register is first
// built, and across a Reseed mid-stream.
func TestNewMatchesMathRand(t *testing.T) {
	for _, seed := range mathRandSeeds() {
		reseed := int64(Hash64(uint64(seed), 1))
		if err := compareMathRand(New(seed), rand.New(rand.NewSource(seed)), 2400, 1100, reseed); err != nil {
			t.Fatalf("seed %d (reseed %d): %v", seed, reseed, err)
		}
	}
}

func FuzzNewMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, -1, 1<<31 - 1, 89482311, math.MinInt64} {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws)
		if err := compareMathRand(New(seed), rand.New(rand.NewSource(seed)), n, n/2, ^seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// TestShortStreamAllocs guards O(1) seeding: a split stream that draws
// a handful of values — one per domain in world synthesis — must not
// allocate math/rand's 4.9 KB state table.
func TestShortStreamAllocs(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rn := SplitSeeded(int64(i), "domain/example.com")
			for k := 0; k < 10; k++ {
				sinkFloat += rn.Float64()
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 512 {
		t.Fatalf("SplitSeeded + 10 draws allocates %d B/op, want < 512", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rn := New(seed)
		p := rn.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParetoMonotoneInXmin(t *testing.T) {
	// Property: scaling xmin scales every sample by the same factor for
	// the same underlying uniform stream.
	f := func(seed int64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			x, y := a.Pareto(2, 1), b.Pareto(2, 10)
			if math.Abs(y-10*x) > 1e-9*y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
