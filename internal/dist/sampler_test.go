package dist

import (
	"math"
	"testing"

	"reskit/internal/rng"
	"reskit/internal/stats"
)

// samplerLaws are the truncated laws whose Sample the conformance gate
// checks: the paper's shipped laws, plus one law per edge of the
// rejection/inverse-CDF split.
var samplerLaws = []struct {
	name   string
	law    *Truncated
	reject bool // the branch Sample must take
}{
	{"norm:3,0.5@[0,inf]", Truncate(NewNormal(3, 0.5), 0, math.Inf(1)), true},
	{"norm:5,0.4@[0,inf]", Truncate(NewNormal(5, 0.4), 0, math.Inf(1)), true},
	{"gamma:6,0.5@[0,inf]", Truncate(NewGamma(6, 0.5), 0, math.Inf(1)), true},
	{"norm:3.5,1@[1,6] (two-sided)", Truncate(NewNormal(3.5, 1), 1, 6), true},
	{"norm:0,1@[0,inf] (mass 1/2)", Truncate(NewNormal(0, 1), 0, math.Inf(1)), true},
	{"exp:0.5@[1,3] (mass 0.38)", Truncate(NewExponential(0.5), 1, 3), false},
}

// TestTruncatedSampleConformance is the statistical gate that stands in
// for bit-equality with an earlier sampler: at fixed seeds, 20,000
// draws of every law must pass Kolmogorov–Smirnov and Anderson–Darling
// against the law's own CDF.
func TestTruncatedSampleConformance(t *testing.T) {
	const n = 20000
	for _, tc := range samplerLaws {
		if tc.law.reject != tc.reject {
			t.Errorf("%s: rejection branch = %v, want %v (mass %g)", tc.name, tc.law.reject, tc.reject, tc.law.mass)
		}
		for _, seed := range []uint64{1, 2} {
			r := rng.New(seed)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = tc.law.Sample(r)
			}
			ks := stats.KolmogorovSmirnov(xs, tc.law.CDF)
			ad := stats.AndersonDarling(xs, tc.law.CDF)
			if !(ks.PValue > 1e-3) || !(ad.PValue > 1e-3) {
				t.Errorf("%s seed %d: KS D=%.4g p=%.3g, AD A²=%.4g p=%.3g; want both p > 1e-3",
					tc.name, seed, ks.Statistic, ks.PValue, ad.Statistic, ad.PValue)
			}
		}
	}
}

// TestTruncatedSampleRejectsFromBase pins the rejection branch to the
// base sampler: a truncation that removes no mass returns the base
// law's own variate stream.
func TestTruncatedSampleRejectsFromBase(t *testing.T) {
	base := NewGamma(6, 0.5)
	law := Truncate(base, 0, math.Inf(1))
	r1, r2 := rng.New(9), rng.New(9)
	for i := 0; i < 1000; i++ {
		if got, want := law.Sample(r1), base.Sample(r2); got != want {
			t.Fatalf("draw %d: %v, base sampler %v", i, got, want)
		}
	}
}

// nanSampler is a law whose sampler only ever returns NaN.
type nanSampler struct{ Normal }

func (nanSampler) Sample(*rng.Source) float64 { return math.NaN() }

// TestTruncatedSampleBoundedRejection: a base sampler that never lands
// inside the window cannot spin Sample forever; the bounded loop falls
// back to inverse CDF.
func TestTruncatedSampleBoundedRejection(t *testing.T) {
	law := Truncate(nanSampler{NewNormal(0, 1)}, -1, 2)
	if !law.reject {
		t.Fatal("want the rejection branch")
	}
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		if x := law.Sample(r); !(x >= -1 && x <= 2) {
			t.Fatalf("draw %d = %v, want inside [-1, 2]", i, x)
		}
	}
}
