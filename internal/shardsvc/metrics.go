package shardsvc

import (
	"strconv"

	"repro/internal/admission"
	"repro/internal/telemetry"
)

// fedMetrics is the federation's shardsvc_* families. With a nil registry the
// counters still exist (standalone atomics — FedStats reads them) but the
// gauges are skipped, matching the placesvc "nil Registry = one branch"
// contract.
type fedMetrics struct {
	reg *telemetry.Registry

	routed     []*telemetry.Counter // arrivals routed, per shard
	forwards   *telemetry.Counter   // overflow forwards to a sibling shard
	rejections *telemetry.Counter   // VMs no shard could admit
	sheds      [len(admission.Classes)]*telemetry.Counter

	rebRounds *telemetry.Counter // rounds that observed skew
	rebMoves  *telemetry.Counter // VMs migrated between shards
	rebFailed *telemetry.Counter // moves the recipient refused
	rebErrors *telemetry.Counter // rounds that aborted with an error

	headroomG []*telemetry.Gauge // per-shard headroom
	queueG    []*telemetry.Gauge // per-shard submission-queue depth
}

func newFedMetrics(reg *telemetry.Registry, n int) *fedMetrics {
	m := &fedMetrics{reg: reg, routed: make([]*telemetry.Counter, n)}
	if reg == nil {
		for i := range m.routed {
			m.routed[i] = new(telemetry.Counter)
		}
		m.forwards = new(telemetry.Counter)
		m.rejections = new(telemetry.Counter)
		for c := range m.sheds {
			m.sheds[c] = new(telemetry.Counter)
		}
		m.rebRounds = new(telemetry.Counter)
		m.rebMoves = new(telemetry.Counter)
		m.rebFailed = new(telemetry.Counter)
		m.rebErrors = new(telemetry.Counter)
		return m
	}
	reg.Help("shardsvc_routed_total", "Arrivals the power-of-d router sent to each shard.")
	reg.Help("shardsvc_forwards_total", "Arrivals forwarded to a sibling shard after the routed shard ran out of capacity.")
	reg.Help("shardsvc_rejections_total", "VMs no shard could admit (fleet-wide ErrNoCapacity).")
	reg.Help("shardsvc_sheds_total", "Arrivals shed by the global admission policy, by class.")
	reg.Help("shardsvc_rebalance_rounds_total", "Rebalance rounds that observed occupancy skew past the band.")
	reg.Help("shardsvc_rebalance_moves_total", "VMs migrated between shards by the rebalancer.")
	reg.Help("shardsvc_rebalance_failed_total", "Rebalance moves refused by the recipient shard.")
	reg.Help("shardsvc_rebalance_errors_total", "Rebalance rounds that aborted with an error (including any VM-evicting rollback failure); the background ticker cannot return errors, so failed rounds surface here.")
	reg.Help("shardsvc_headroom", "Free Eq. (17) slots per shard, sampled at routing time.")
	reg.Help("shardsvc_queue_depth", "Submission-queue depth per shard, sampled at routing time.")
	m.headroomG = make([]*telemetry.Gauge, n)
	m.queueG = make([]*telemetry.Gauge, n)
	for i := 0; i < n; i++ {
		shard := strconv.Itoa(i)
		m.routed[i] = reg.Counter(telemetry.WithLabels("shardsvc_routed_total", "shard", shard))
		m.headroomG[i] = reg.Gauge(telemetry.WithLabels("shardsvc_headroom", "shard", shard))
		m.queueG[i] = reg.Gauge(telemetry.WithLabels("shardsvc_queue_depth", "shard", shard))
	}
	m.forwards = reg.Counter("shardsvc_forwards_total")
	m.rejections = reg.Counter("shardsvc_rejections_total")
	for c := range m.sheds {
		m.sheds[c] = reg.Counter(telemetry.WithLabels("shardsvc_sheds_total",
			"class", admission.Class(c).String()))
	}
	m.rebRounds = reg.Counter("shardsvc_rebalance_rounds_total")
	m.rebMoves = reg.Counter("shardsvc_rebalance_moves_total")
	m.rebFailed = reg.Counter("shardsvc_rebalance_failed_total")
	m.rebErrors = reg.Counter("shardsvc_rebalance_errors_total")
	return m
}

func (m *fedMetrics) noteShed(class admission.Class, cost int) {
	m.sheds[class].Add(uint64(cost))
}

// FedStats is a point-in-time view of the federation's own counters —
// routing, forwarding and rebalancing activity the per-shard placesvc.Stats
// cannot see.
type FedStats struct {
	Routed          []uint64 // arrivals routed, per shard
	Forwards        uint64   // overflow forwards
	Rejections      uint64   // fleet-wide capacity rejections
	Sheds           uint64   // global-policy sheds, all classes
	RebalanceRounds uint64
	RebalanceMoves  uint64
	RebalanceFailed uint64
	RebalanceErrors uint64
}

// FedStats returns the federation counters.
func (f *Federation) FedStats() FedStats {
	m := f.metrics
	st := FedStats{
		Routed:          make([]uint64, len(m.routed)),
		Forwards:        m.forwards.Value(),
		Rejections:      m.rejections.Value(),
		RebalanceRounds: m.rebRounds.Value(),
		RebalanceMoves:  m.rebMoves.Value(),
		RebalanceFailed: m.rebFailed.Value(),
		RebalanceErrors: m.rebErrors.Value(),
	}
	for i, c := range m.routed {
		st.Routed[i] = c.Value()
	}
	for _, c := range m.sheds {
		st.Sheds += c.Value()
	}
	return st
}
