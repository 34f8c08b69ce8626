package dist

import (
	"fmt"
	"math"

	"reskit/internal/quad"
	"reskit/internal/rng"
)

// Truncated is the law of a base continuous variable conditioned on
// falling inside [Lo, Hi]. This is exactly the construction of Section 3.1
// of the paper: the checkpoint-duration law D_C is a well-known law Z
// truncated to [a, b], with CDF (F(x) - F(a)) / (F(b) - F(a)).
//
// Hi may be +Inf (e.g. the Normal law truncated to [0, inf) that models
// checkpoint durations in the workflow scenario, Section 4.1).
type Truncated struct {
	Base   Continuous
	Lo, Hi float64

	// cached at construction
	fLo, fHi float64 // base CDF at the bounds
	mass     float64 // fHi - fLo
	reject   bool    // Sample rejects from the base law (mass >= 1/2)
	mean     float64
	variance float64
}

// Truncate returns Base conditioned on [lo, hi]. It panics if lo >= hi or
// if the base law puts zero probability on [lo, hi].
func Truncate(base Continuous, lo, hi float64) *Truncated {
	if !(lo < hi) || math.IsNaN(lo) || math.IsNaN(hi) {
		panic(fmt.Sprintf("dist: Truncate requires lo < hi, got [%g, %g]", lo, hi))
	}
	fLo := base.CDF(lo)
	fHi := 1.0
	if !math.IsInf(hi, 1) {
		fHi = base.CDF(hi)
	}
	mass := fHi - fLo
	if !(mass > 0) {
		panic(fmt.Sprintf("dist: Truncate: %v has zero mass on [%g, %g]", base, lo, hi))
	}
	t := &Truncated{Base: base, Lo: lo, Hi: hi, fLo: fLo, fHi: fHi, mass: mass, reject: mass >= 0.5}
	t.mean, t.variance = t.numericMoments()
	return t
}

func (t *Truncated) String() string {
	return fmt.Sprintf("%v | [%g, %g]", t.Base, t.Lo, t.Hi)
}

// numericMoments integrates x*pdf and x^2*pdf over the truncated support.
func (t *Truncated) numericMoments() (mean, variance float64) {
	m1f := func(x float64) float64 { return x * t.PDF(x) }
	m2f := func(x float64) float64 { return x * x * t.PDF(x) }
	var m1, m2 float64
	if math.IsInf(t.Hi, 1) {
		m1 = quad.SemiInfinite(m1f, t.Lo, 1e-12, 1e-10).Value
		m2 = quad.SemiInfinite(m2f, t.Lo, 1e-12, 1e-10).Value
	} else {
		m1 = quad.Kronrod(m1f, t.Lo, t.Hi, 1e-12, 1e-10).Value
		m2 = quad.Kronrod(m2f, t.Lo, t.Hi, 1e-12, 1e-10).Value
	}
	v := m2 - m1*m1
	if v < 0 {
		v = 0
	}
	return m1, v
}

// PDF returns base.PDF(x) / mass inside [Lo, Hi] and 0 outside.
func (t *Truncated) PDF(x float64) float64 {
	if x < t.Lo || x > t.Hi {
		return 0
	}
	return t.Base.PDF(x) / t.mass
}

// LogPDF returns log(PDF(x)).
func (t *Truncated) LogPDF(x float64) float64 {
	if x < t.Lo || x > t.Hi {
		return math.Inf(-1)
	}
	return t.Base.LogPDF(x) - math.Log(t.mass)
}

// CDF returns (F(x) - F(Lo)) / (F(Hi) - F(Lo)) clipped to [0, 1].
func (t *Truncated) CDF(x float64) float64 {
	switch {
	case x <= t.Lo:
		return 0
	case x >= t.Hi:
		return 1
	}
	v := (t.Base.CDF(x) - t.fLo) / t.mass
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}

// Quantile inverts the truncated CDF through the base quantile.
func (t *Truncated) Quantile(p float64) float64 {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	x := t.Base.Quantile(t.fLo + p*t.mass)
	// Clip: the base quantile can step a rounding error outside.
	if x < t.Lo {
		return t.Lo
	}
	if x > t.Hi {
		return t.Hi
	}
	return x
}

// Mean returns the truncated mean (computed numerically at construction).
func (t *Truncated) Mean() float64 { return t.mean }

// Variance returns the truncated variance.
func (t *Truncated) Variance() float64 { return t.variance }

// Support returns [Lo, Hi].
func (t *Truncated) Support() (float64, float64) { return t.Lo, t.Hi }

// rejectAttempts bounds the rejection loop of Sample. With a retained
// mass of at least 1/2, reaching the bound has probability at most
// 2^-64; a base sampler that returns NaN reaches it every time.
const rejectAttempts = 64

// Sample draws a variate with one of two exact methods, chosen at
// construction from the retained mass F(Hi) - F(Lo):
//
//   - mass >= 1/2: draw from the base law's own sampler and reject
//     values outside (Lo, Hi], the event whose law CDF describes. That
//     takes at most 2 expected base draws. After rejectAttempts misses
//     it falls back to inverse CDF, which keeps the result exact: every
//     accepted draw already has the truncated law, and the fallback is
//     independent of the rejected draws.
//   - mass < 1/2: inverse CDF through the base quantile, mapping
//     u ~ Uniform(0,1) to F^{-1}(F(Lo) + u*mass). One uniform per draw,
//     however deep the truncation.
//
// Which method runs, and so the variate stream a given rng state
// yields, is part of SamplerVersion.
func (t *Truncated) Sample(r *rng.Source) float64 {
	if t.reject {
		for i := 0; i < rejectAttempts; i++ {
			if x := t.Base.Sample(r); t.Lo < x && x <= t.Hi {
				return x
			}
		}
	}
	return t.Quantile(r.Float64Open())
}
