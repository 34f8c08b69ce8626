package dist

import (
	"math"
	"testing"

	"reskit/internal/rng"
)

// FuzzTruncate checks that TryTruncate never panics for any bound pair
// on any (possibly invalid) Normal base law, and that every successfully
// constructed truncation behaves like a probability law on its support.
func FuzzTruncate(f *testing.F) {
	f.Add(3.0, 0.5, 0.0, math.Inf(1))
	f.Add(5.0, 0.4, 3.0, 7.0)
	f.Add(0.0, 1.0, -1.0, 1.0)
	f.Add(0.0, 1.0, 1.0, 1.0)           // empty interval
	f.Add(0.0, 1.0, 5.0, -5.0)          // inverted bounds
	f.Add(0.0, 1.0, math.NaN(), 1.0)    // NaN bound
	f.Add(0.0, 0.0, 0.0, 1.0)           // invalid sigma
	f.Add(0.0, 1.0, 1e308, math.Inf(1)) // zero mass in the far tail
	f.Add(math.Inf(1), 1.0, 0.0, 1.0)   // invalid mu

	f.Fuzz(func(t *testing.T, mu, sigma, lo, hi float64) {
		base, err := TryNewNormal(mu, sigma)
		if err != nil {
			return
		}
		tr, err := TryTruncate(base, lo, hi)
		if err != nil {
			return
		}
		if tr.CDF(lo) != 0 {
			t.Fatalf("CDF(lo=%g) = %g, want 0", lo, tr.CDF(lo))
		}
		if !math.IsInf(hi, 1) && tr.CDF(hi) != 1 {
			t.Fatalf("CDF(hi=%g) = %g, want 1", hi, tr.CDF(hi))
		}
		mid := tr.Quantile(0.5)
		if math.IsNaN(mid) {
			t.Fatalf("Quantile(0.5) is NaN for Normal(%g, %g) | [%g, %g]", mu, sigma, lo, hi)
		}
		if mid < lo || mid > hi {
			t.Fatalf("median %g outside [%g, %g]", mid, lo, hi)
		}
		r := rng.New(1)
		for i := 0; i < 8; i++ {
			if x := tr.Sample(r); x < lo || x > hi {
				t.Fatalf("sample %g outside [%g, %g]", x, lo, hi)
			}
		}
	})
}

// FuzzTruncatedSample draws from random truncations of the normal,
// gamma and exponential laws, on either side of the mass-1/2 split
// between rejection and inverse CDF: Sample must return, and every
// draw must lie in [Lo, Hi].
func FuzzTruncatedSample(f *testing.F) {
	f.Add(uint8(0), 3.0, 0.5, 0.0, math.Inf(1), uint64(1))
	f.Add(uint8(0), 3.5, 1.0, 1.0, 6.0, uint64(2))
	f.Add(uint8(0), 0.0, 1.0, 0.0, math.Inf(1), uint64(3)) // mass exactly 1/2
	f.Add(uint8(0), 0.0, 1.0, -1e-9, 1e-9, uint64(4))      // a sliver
	f.Add(uint8(1), 6.0, 0.5, 0.0, math.Inf(1), uint64(5))
	f.Add(uint8(1), 0.3, 2.0, 1e-3, 0.5, uint64(6))
	f.Add(uint8(2), 0.5, 0.0, 1.0, 3.0, uint64(7))
	f.Add(uint8(2), 0.5, 0.0, math.Inf(-1), 2.0, uint64(8))

	f.Fuzz(func(t *testing.T, kind uint8, p1, p2, lo, hi float64, seed uint64) {
		var base Continuous
		var err error
		switch kind % 3 {
		case 0:
			base, err = TryNewNormal(p1, p2)
		case 1:
			base, err = TryNewGamma(p1, p2)
		default:
			base, err = TryNewExponential(p1)
		}
		if err != nil {
			return
		}
		tr, err := TryTruncate(base, lo, hi)
		if err != nil {
			return
		}
		r := rng.New(seed)
		for i := 0; i < 64; i++ {
			if x := tr.Sample(r); !(x >= lo && x <= hi) {
				t.Fatalf("%v: draw %d = %g outside [%g, %g] (mass %g)", tr, i, x, lo, hi, tr.mass)
			}
		}
	})
}

// FuzzTryEmpirical checks the recover-based constructor against
// arbitrary 4-observation samples.
func FuzzTryEmpirical(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(math.NaN(), 1.0, 2.0, 3.0)
	f.Add(math.Inf(1), 1.0, 2.0, 3.0)
	f.Add(-1e308, 1e308, 0.0, 0.0)

	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		e, err := TryNewEmpirical([]float64{a, b, c, d})
		if err != nil {
			return
		}
		lo, hi := e.Support()
		if math.IsNaN(e.Mean()) || e.Mean() < lo || e.Mean() > hi {
			t.Fatalf("mean %g outside support [%g, %g]", e.Mean(), lo, hi)
		}
		if q := e.Quantile(0.5); q < lo || q > hi {
			t.Fatalf("median %g outside support [%g, %g]", q, lo, hi)
		}
	})
}
