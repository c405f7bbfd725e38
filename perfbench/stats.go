package main

import (
	"runtime/metrics"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// runtime/metrics samples the benchmark reads. None of them stops the
// world, so sampling at every round boundary is cheap.
const (
	mHeapLive   = "/gc/heap/live:bytes"
	mHeapAllocs = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mIdleCPU    = "/cpu/classes/idle:cpu-seconds"
)

// heapSampler tracks the peak of the live heap (the bytes the last
// garbage collection marked) over the samples it is given. Unlike the heap
// including garbage not yet collected, it does not depend on when the
// collector happened to run.
type heapSampler struct {
	s    [1]metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.s[0].Name = mHeapLive
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.s[:])
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// runtimeCounters is a reading of the cumulative runtime counters the
// runtime layer metrics are deltas of. busyCPU is CPU time the Go program
// used: the runtime's total available CPU time minus its idle time.
type runtimeCounters struct {
	allocBytes     uint64
	gcCPU, busyCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: mHeapAllocs}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mIdleCPU}}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		busyCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: c.allocBytes - o.allocBytes,
		gcCPU:      c.gcCPU - o.gcCPU,
		busyCPU:    c.busyCPU - o.busyCPU,
	}
}
