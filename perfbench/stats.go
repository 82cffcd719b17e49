package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples holds raw per-load latencies. Quantiles are exact order
// statistics over every sample, never bucketed estimates.
type samples []time.Duration

// minBeyond is how many samples must lie beyond a percentile before
// it is reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile, or an error when fewer
// than minBeyond samples lie beyond it.
func (s samples) quantile(q float64) (time.Duration, error) {
	n := len(s)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if beyond := float64(n) * (1 - q); beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %.0f of %d", q*100, minBeyond, beyond, n)
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(n))) - 1
	return sorted[max(rank, 0)], nil
}

// chunkSize is the number of consecutive loads each latency quantile
// is computed over: enough for 10 samples beyond a p99.
const chunkSize = 1000

// chunked returns the median, over consecutive chunks of chunkSize
// loads in time order, of each chunk's exact q-quantile, and the
// number of chunks. A burst of interference from outside the program
// moves one chunk's quantile, not the reported median.
func chunked(lat samples, at []time.Duration, q float64) (time.Duration, int, error) {
	order := make([]int, len(lat))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return at[order[a]] < at[order[b]] })
	var qs []float64
	for lo := 0; lo+chunkSize <= len(order); lo += chunkSize {
		chunk := make(samples, 0, chunkSize)
		for _, i := range order[lo : lo+chunkSize] {
			chunk = append(chunk, lat[i])
		}
		v, err := chunk.quantile(q)
		if err != nil {
			return 0, 0, err
		}
		qs = append(qs, float64(v))
	}
	if len(qs) == 0 {
		return 0, 0, fmt.Errorf("%d loads, need at least %d for a p%g", len(lat), chunkSize, q*100)
	}
	return time.Duration(medianFloat(qs)), len(qs), nil
}

// medianFloat returns the median of xs (mean of the middle pair for an
// even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
