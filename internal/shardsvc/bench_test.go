package shardsvc

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cloud"
)

// shardBenchM mirrors the placesvc scale sweep: 1k PMs by default, the full
// ladder under SCALE_BENCH_FULL=1.
func shardBenchM() []int {
	if os.Getenv("SCALE_BENCH_FULL") != "" {
		return []int{1_000, 10_000}
	}
	return []int{1_000}
}

// benchWindow matches the placesvc admission benchmarks: each client keeps a
// 64-VM live window so the fleet reaches a steady state.
const benchWindow = 64

func benchClientOps(f *Federation, b *testing.B, client, ops int) {
	window := make([]int, 0, benchWindow)
	base := (client + 1) * 1_000_000_000
	for i := 0; i < ops; i++ {
		if len(window) == benchWindow {
			if err := f.Depart(window[0]); err != nil {
				b.Errorf("client %d: depart: %v", client, err)
				return
			}
			copy(window, window[1:])
			window = window[:benchWindow-1]
		}
		id := base + i
		if _, err := f.Arrive(mkVM(id, 5, 3)); err != nil {
			if errors.Is(err, cloud.ErrNoCapacity) {
				continue
			}
			b.Errorf("client %d: arrive: %v", client, err)
			return
		}
		window = append(window, id)
	}
}

// BenchmarkShardAdmit measures concurrent admission throughput through the
// federation across the shard ladder: b.N windowed arrive ops split over the
// client goroutines, against 1, 2, 4 and 8 shards. shards=1 is the
// single-committer baseline (the federation adds only the constant-shard
// router and the owner index on top of BenchmarkServeAdmit); higher shard
// counts trade fleet-wide first-fit for parallel committers, so the
// interesting read is ns/op versus shards=1 at the same client count. On a
// single-core container the extra committer goroutines only add scheduling
// pressure — the speedup needs a multi-core runner, the same caveat as the
// PR 5/7 matrices.
func BenchmarkShardAdmit(b *testing.B) {
	for _, m := range shardBenchM() {
		for _, shards := range []int{1, 2, 4, 8} {
			for _, clients := range []int{1, 4, 16} {
				name := fmt.Sprintf("m=%d/shards=%d/clients=%d", m, shards, clients)
				b.Run(name, func(b *testing.B) {
					f, err := New(Config{
						Strategy:  paperStrategy(),
						PMs:       mkPool(m, 100),
						POn:       0.01,
						POff:      0.09,
						MaxShards: shards,
						Seed:      1,
						Workers:   runtime.GOMAXPROCS(0),
					})
					if err != nil {
						b.Fatal(err)
					}
					defer f.Close()
					b.ReportAllocs()
					b.ResetTimer()
					var wg sync.WaitGroup
					for c := 0; c < clients; c++ {
						ops := b.N / clients
						if c < b.N%clients {
							ops++
						}
						if ops == 0 {
							continue
						}
						wg.Add(1)
						go func(c, ops int) {
							defer wg.Done()
							benchClientOps(f, b, c, ops)
						}(c, ops)
					}
					wg.Wait()
				})
			}
		}
	}
}

// BenchmarkRouterPick isolates the router's per-arrival cost: d hash draws
// plus d headroom-counter reads.
func BenchmarkRouterPick(b *testing.B) {
	for _, shards := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			f, err := New(Config{
				Strategy:  paperStrategy(),
				PMs:       mkPool(64, 100),
				POn:       0.01,
				POff:      0.09,
				MaxShards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += f.router.pick(f.headroom)
			}
			_ = sink
		})
	}
}
