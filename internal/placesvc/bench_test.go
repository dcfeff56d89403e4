package placesvc

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
)

// serveBenchM mirrors the core scale sweep: 1k PMs by default, the
// 1k/10k/100k ladder under SCALE_BENCH_FULL=1.
func serveBenchM() []int {
	if os.Getenv("SCALE_BENCH_FULL") != "" {
		return []int{1_000, 10_000, 100_000}
	}
	return []int{1_000}
}

// benchWindow is each client's live-VM window: one admission per op, with the
// oldest VM departing once the window fills, so the fleet reaches a steady
// state instead of monotonically filling the pool.
const benchWindow = 64

func benchClientOps(svc *Service, b *testing.B, client, ops int) {
	window := make([]int, 0, benchWindow)
	base := (client + 1) * 1_000_000_000
	for i := 0; i < ops; i++ {
		if len(window) == benchWindow {
			if err := svc.Depart(window[0]); err != nil {
				b.Errorf("client %d: depart: %v", client, err)
				return
			}
			copy(window, window[1:])
			window = window[:benchWindow-1]
		}
		id := base + i
		if _, err := svc.Arrive(mkVM(id, 5, 3)); err != nil {
			if errors.Is(err, cloud.ErrNoCapacity) {
				continue
			}
			b.Errorf("client %d: arrive: %v", client, err)
			return
		}
		window = append(window, id)
	}
}

// BenchmarkServeAdmit measures concurrent admission throughput through the
// group-commit service: b.N arrive ops (with window departures) split across
// 1, 4 and 16 client goroutines. Compare against BenchmarkSerialAdmit for the
// concurrency speedup; on a single-core box the service can at best tie the
// serial loop (and pays the queue hop), so the ≥4× target needs a multi-core
// runner.
func BenchmarkServeAdmit(b *testing.B) {
	for _, m := range serveBenchM() {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("m=%d/clients=%d", m, clients), func(b *testing.B) {
				svc, err := New(Config{
					Strategy: paperStrategy(),
					PMs:      mkPool(m, 100),
					POn:      0.01,
					POff:     0.09,
					// Track the -cpu matrix level: each GOMAXPROCS level
					// measures the committer fanned out over that many
					// workers, the deployment default.
					Workers: runtime.GOMAXPROCS(0),
				})
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
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
						benchClientOps(svc, b, c, ops)
					}(c, ops)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkSerialAdmit is the sequential baseline: the same windowed workload
// applied straight to core.Online, no queue, no committer, no snapshots.
func BenchmarkSerialAdmit(b *testing.B) {
	for _, m := range serveBenchM() {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			online, err := core.NewOnline(paperStrategy(), mkPool(m, 100), 0.01, 0.09)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			window := make([]int, 0, benchWindow)
			for i := 0; i < b.N; i++ {
				if len(window) == benchWindow {
					if err := online.Depart(window[0]); err != nil {
						b.Fatal(err)
					}
					copy(window, window[1:])
					window = window[:benchWindow-1]
				}
				if _, err := online.Arrive(mkVM(i, 5, 3)); err != nil {
					if errors.Is(err, cloud.ErrNoCapacity) {
						continue
					}
					b.Fatal(err)
				}
				window = append(window, i)
			}
		})
	}
}

// BenchmarkBatchApply measures one committed churn cycle — a 1024-VM batched
// departure, the same VMs batch-arriving back, and a table refresh — as a
// function of Config.Workers. The departure rescore and the post-refresh
// index rebuild are the committer phases that fan out over workers; arrivals
// stay sequential by contract. On a single-core box every workers level
// degenerates to the sequential walk (the fan-out helper collapses to one
// range), so cross-level deltas only mean something on a multi-core runner.
func BenchmarkBatchApply(b *testing.B) {
	const m = 4096
	const batch = 1024
	vms := make([]cloud.VM, batch)
	ids := make([]int, batch)
	for i := range vms {
		vms[i] = mkVM(i, 5, 3)
		ids[i] = i
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("m=%d/batch=%d/workers=%d", m, batch, workers), func(b *testing.B) {
			svc, err := New(Config{
				Strategy: paperStrategy(),
				PMs:      mkPool(m, 100),
				POn:      0.01,
				POff:     0.09,
				Workers:  workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			if _, err := svc.ArriveBatch(vms); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if missing, err := svc.DepartBatch(ids); err != nil || len(missing) != 0 {
					b.Fatalf("depart: %v (missing %d)", err, len(missing))
				}
				if unplaced, err := svc.ArriveBatch(vms); err != nil || len(unplaced) != 0 {
					b.Fatalf("arrive: %v (unplaced %d)", err, len(unplaced))
				}
				if err := svc.RefreshTable(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
