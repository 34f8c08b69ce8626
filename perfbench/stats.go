package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no data). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[hi]-xs[lo])
}

// median of xs, without reordering the caller's slice.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// durations collects operation durations from concurrent callers.
type durations struct {
	mu sync.Mutex
	xs []float64
}

func (d *durations) add(x time.Duration) {
	d.mu.Lock()
	d.xs = append(d.xs, float64(x))
	d.mu.Unlock()
}

// take returns the collected values (ns) and resets the collector.
func (d *durations) take() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	xs := d.xs
	d.xs = nil
	return xs
}

// heapSampler polls the runtime heap size every 5 ms and keeps the
// peak of each one-second window. The peak of a whole run is the top of
// one GC sawtooth caught by one sample: over five distrun runs its
// quartiles lay 23% of the median apart. The median window peak is the
// level the heap typically reaches.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peaks []float64
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	heapWindow = time.Second
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak float64
		window := time.Now()
		for {
			metrics.Read(sample)
			peak = math.Max(peak, float64(sample[0].Value.Uint64()))
			if time.Since(window) >= heapWindow {
				h.peaks = append(h.peaks, peak)
				peak, window = 0, time.Now()
			}
			select {
			case <-h.stopc:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, peak)
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median window peak in bytes (the
// peak so far when the run was shorter than one window).
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return median(h.peaks)
}
