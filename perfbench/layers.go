package main

import (
	"time"

	"reskit/internal/specfun"
)

// specfunInputs is the fixed input set of the standalone kernel
// timings: probabilities across (0, 1) and abscissae across [-4, 4].
const specfunInputs = 1024

// specfunSink keeps the timed kernel results live.
var specfunSink float64

// specfunProbe times the specfun kernels the samplers and table builds
// call, over a fixed input set: GammaIncPInv at the gamma task law's
// shape, NormQuantile and NormCDF. Each is the median over repeats of
// the mean time per call.
func specfunProbe(e *env) {
	ps := make([]float64, specfunInputs)
	xs := make([]float64, specfunInputs)
	for i := range ps {
		ps[i] = (float64(i) + 0.5) / specfunInputs
		xs[i] = -4 + 8*ps[i]
	}
	var sink float64
	time1 := func(f func(float64) float64, in []float64) float64 {
		var reps []float64
		for r := 0; r < 25; r++ {
			t0 := time.Now()
			for _, v := range in {
				sink += f(v)
			}
			reps = append(reps, float64(time.Since(t0))/float64(len(in)))
		}
		return median(reps)
	}
	e.set("specfun.gamma_inc_p_inv_ns", time1(func(p float64) float64 { return specfun.GammaIncPInv(6, p) }, ps))
	e.set("specfun.norm_quantile_ns", time1(specfun.NormQuantile, ps))
	e.set("specfun.norm_cdf_ns", time1(specfun.NormCDF, xs))
	specfunSink = sink
}
