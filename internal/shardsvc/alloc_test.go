//go:build !race

// Allocation count of the federated admit path. Not under the race detector:
// it makes sync.Pool drop a share of its Puts, so the shards' pooled requests
// would be counted.

package shardsvc

import (
	"testing"

	"repro/internal/admission"
)

// A warmed Arrive + Depart pair through a 4-shard federation with the
// benchmark's open-loop admission config attached (per-shard token bucket +
// occupancy gate, neither shedding) allocates nothing: the router and the
// gate read the shards' headroom and occupancy counters, never a snapshot,
// and each shard's commit publishes without building one.
func TestFederatedAdmitAllocatesNothing(t *testing.T) {
	fed := newFedT(t, Config{
		PMs:       mkPool(200, 100),
		MaxShards: 4,
		Seed:      42,
		Admission: &admission.Config{
			TokenBucket: &admission.TokenBucketConfig{Capacity: 80000, RefillPerSec: 84000},
			Occupancy:   &admission.OccupancyConfig{ShedAbove: 0.97, ResumeBelow: 0.9},
			Scope:       admission.ScopeShard,
		},
	})
	for id := 0; id < 400; id++ {
		if _, err := fed.Arrive(mkVM(id, 5, 5)); err != nil {
			t.Fatal(err)
		}
	}
	next := 400
	pair := func() {
		if _, err := fed.Arrive(mkVM(next, 5, 5)); err != nil {
			t.Fatal(err)
		}
		if err := fed.Depart(next - 200); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 600; i++ { // host lists, id maps and the owner index at working size
		pair()
	}
	if allocs := testing.AllocsPerRun(1000, pair); allocs != 0 {
		t.Errorf("warmed federated Arrive+Depart pair allocates %v times per pair, want 0", allocs)
	}
	if got, want := fed.Stats().VMs, 400; got != want {
		t.Fatalf("fleet drifted to %d VMs, want %d", got, want)
	}
	if got, want := fed.Headroom(), 200*paperStrategy().MaxVMsPerPM-400; got != want {
		t.Errorf("Headroom() = %d, want %d", got, want)
	}
}
