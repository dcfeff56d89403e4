package queuing

import (
	"fmt"
	"testing"
)

// The PR 10 headline matrix: closed-form transient queries across capacity k
// and horizon t. Each iteration builds a fresh Transient and solves cold, so
// the numbers measure the honest cost of one forecast (no memo, no warm
// scratch) and the t-rows demonstrate t-independence. The test-side matrix
// oracle runs the same shape at the horizons it can afford — t = 10⁶ would
// take minutes per op at k = 256, which is precisely the point of the closed
// form, so the oracle grid stops at 10³.

var benchChains = struct{ pOn, pOff float64 }{0.01, 0.09}

func BenchmarkTransientClosedForm(b *testing.B) {
	for _, k := range []int{16, 64, 256} {
		for _, horizon := range []int{10, 1000, 1_000_000} {
			b.Run(fmt.Sprintf("k=%d/t=%d", k, horizon), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tr, err := NewTransient(k, benchChains.pOn, benchChains.pOff)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := tr.DistributionAt(horizon, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTransientMatrix(b *testing.B) {
	for _, k := range []int{16, 64, 256} {
		for _, horizon := range []int{10, 1000} {
			b.Run(fmt.Sprintf("k=%d/t=%d", k, horizon), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tr, err := newMatrixTransient(k, benchChains.pOn, benchChains.pOff)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := tr.distributionAt(horizon, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkForecastCurve measures the batched autoscaler query: a 128-step
// violation curve through reused scratch.
func BenchmarkForecastCurve(b *testing.B) {
	for _, k := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("k=%d/span=128", k), func(b *testing.B) {
			tr, err := NewTransient(k, benchChains.pOn, benchChains.pOff)
			if err != nil {
				b.Fatal(err)
			}
			kBlocks := k / 4
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.ForecastCurve(0, 127, kBlocks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForecastCacheHit measures the steady-state hot-plane path: the
// same forecast served from the shared entry, tail reduction included.
func BenchmarkForecastCacheHit(b *testing.B) {
	cache := NewForecastCache()
	const k, from, horizon, kBlocks = 64, 16, 1000, 16
	if _, err := cache.ViolationAt(k, from, benchChains.pOn, benchChains.pOff, horizon, kBlocks); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.ViolationAt(k, from, benchChains.pOn, benchChains.pOff, horizon, kBlocks); err != nil {
			b.Fatal(err)
		}
	}
}
