package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a := NewRand(7)
	b := NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestRandDistinctSeeds(t *testing.T) {
	a := NewRand(1)
	b := NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between distinct seeds", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	base := NewRand(99)
	d1 := base.Derive(1)
	d2 := base.Derive(2)
	d1again := base.Derive(1)
	if d1.Uint64() != d1again.Uint64() {
		t.Error("Derive is not a pure function of keys")
	}
	if d1.Uint64() == d2.Uint64() {
		t.Error("different keys should give different streams")
	}
	// Derive must not perturb the parent.
	before := NewRand(99).Uint64()
	if base.Uint64() != before {
		t.Error("Derive mutated the parent stream")
	}
}

func TestDeriveSeedMatchesDerive(t *testing.T) {
	base := NewRand(123)
	viaDerive := base.Derive(4, 5).Uint64()
	viaSeed := NewRand(DeriveSeed(123, 4, 5)).Uint64()
	if viaDerive != viaSeed {
		t.Error("DeriveSeed disagrees with Derive")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64MeanVariance(t *testing.T) {
	r := NewRand(11)
	n := 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ≈0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ≈%.4f", variance, 1.0/12)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRand(21)
	n := 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ≈10", mean)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Errorf("normal sd = %v, want ≈2", sd)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(31)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(3)
		if v < 0 {
			t.Fatal("exponential draw negative")
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-3) > 0.1 {
		t.Errorf("exponential mean = %v, want ≈3", mean)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := NewRand(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(8)
	p := make([]int, 20)
	r.Perm(p)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// Property: Range(lo, hi) stays within [lo, hi) for lo < hi.
func TestRangeProperty(t *testing.T) {
	f := func(seed uint64, a, b float64) bool {
		lo, hi := math.Mod(a, 100), math.Mod(b, 100)
		if lo == hi {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		r := NewRand(seed)
		for i := 0; i < 10; i++ {
			v := r.Range(lo, hi)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(77)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate = %v", frac)
	}
}

// TestBoolThresholdMatchesFloatTest: the integer threshold decides Bool's
// Float64() < p exactly, at draws on both sides of the threshold, for edge
// probabilities and random ones.
func TestBoolThresholdMatchesFloatTest(t *testing.T) {
	ps := []float64{0, math.SmallestNonzeroFloat64, 0x1p-53, 0.04, 0.5, math.Nextafter(1, 0), 1}
	r := NewRand(31)
	for i := 0; i < 200; i++ {
		ps = append(ps, r.Float64())
	}
	for _, p := range ps {
		th := BoolThreshold(p)
		// x is u>>11: probe around the threshold and at the ends.
		xs := []uint64{0, 1, 1<<53 - 1}
		for d := uint64(0); d < 3; d++ {
			if th >= d {
				xs = append(xs, th-d)
			}
			if th+d < 1<<53 {
				xs = append(xs, th+d)
			}
		}
		for _, x := range xs {
			u := x<<11 | r.Uint64()>>53 // any low bits: Float64 drops them
			want := float64(u>>11)/(1<<53) < p
			if got := u>>11 < th; got != want {
				t.Errorf("p=%g (threshold %d) at u>>11=%d: integer test %v, Float64() < p %v", p, th, x, got, want)
			}
		}
	}
}

// TestAheadAndSkip: Ahead(i) is the i-th next Uint64 without advancing,
// and Skip(n) lands where n Uint64 calls do.
func TestAheadAndSkip(t *testing.T) {
	a, b := NewRand(5), NewRand(5)
	for n := uint64(0); n < 5; n++ {
		ahead := []uint64{a.Ahead(0), a.Ahead(1), a.Ahead(2)}
		for i, want := range ahead {
			if got := b.Uint64(); got != want {
				t.Fatalf("skip %d: Ahead(%d) = %#x, Uint64 gives %#x", n, i, want, got)
			}
		}
		a.Skip(3)
		a.Skip(n)
		for i := uint64(0); i < n; i++ {
			b.Uint64()
		}
		if a.State() != b.State() {
			t.Fatalf("Skip(%d): state %#x, %d draws give %#x", n, a.State(), n, b.State())
		}
	}
}
