package placesvc

import (
	"repro/internal/admission"
	"repro/internal/telemetry"
)

// svcMetrics bundles the placesvc_* instruments. A nil *svcMetrics disables
// instrumentation; call sites guard with one pointer check.
type svcMetrics struct {
	placements   *telemetry.Counter // placesvc_placements_total
	rejections   *telemetry.Counter // placesvc_rejections_total
	departures   *telemetry.Counter // placesvc_departures_total
	requests     *telemetry.Counter // placesvc_requests_total
	commits      *telemetry.Counter // placesvc_commits_total
	refreshes    *telemetry.Counter // placesvc_table_refreshes_total
	rebuilds     *telemetry.Counter // placesvc_snapshot_rebuilds_total
	adoptions    *telemetry.Counter // placesvc_snapshot_adoptions_total
	batchSize    *telemetry.Histogram
	queueLatency *telemetry.Timer
	queueDepth   *telemetry.Gauge
	vms          *telemetry.Gauge
	usedPMs      *telemetry.Gauge
	version      *telemetry.Gauge

	// Admission-layer backpressure instruments, registered only when the
	// service carries a policy (policyName != ""). sheds indexes by
	// admission.Class.
	sheds         []*telemetry.Counter // admission_sheds_total{policy,class}
	admQueueDepth *telemetry.Gauge     // admission_queue_depth
	shedEwma      *telemetry.Gauge     // admission_shed_rate_ewma
}

// batchSizeBuckets cover the MaxBatch range in powers of two.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

func newSvcMetrics(reg *telemetry.Registry, policyName string) *svcMetrics {
	if reg == nil {
		return nil
	}
	for family, text := range map[string]string{
		"placesvc_placements_total":         "VMs admitted and placed.",
		"placesvc_rejections_total":         "VM arrivals rejected for lack of capacity.",
		"placesvc_departures_total":         "VMs departed.",
		"placesvc_requests_total":           "Requests committed, all kinds.",
		"placesvc_commits_total":            "Batches committed.",
		"placesvc_table_refreshes_total":    "Applied mapping-table refreshes.",
		"placesvc_snapshot_rebuilds_total":  "Snapshot base re-clones (fallback: op ring outgrew the fleet with no reader materialisation to adopt).",
		"placesvc_snapshot_adoptions_total": "Reader-materialised snapshots adopted as the new base (the clone-free rebase path).",
		"placesvc_batch_size":               "Requests coalesced per commit.",
		"placesvc_queue_latency_seconds":    "Submit-to-commit-pickup latency (cumulative histogram).",
		"placesvc_queue_depth":              "Queued requests at last commit.",
		"placesvc_vms":                      "VMs in the fleet as of the latest snapshot.",
		"placesvc_used_pms":                 "PMs hosting at least one VM.",
		"placesvc_snapshot_version":         "Commit number of the published snapshot.",
	} {
		reg.Help(family, text)
	}
	m := &svcMetrics{
		placements:   reg.Counter("placesvc_placements_total"),
		rejections:   reg.Counter("placesvc_rejections_total"),
		departures:   reg.Counter("placesvc_departures_total"),
		requests:     reg.Counter("placesvc_requests_total"),
		commits:      reg.Counter("placesvc_commits_total"),
		refreshes:    reg.Counter("placesvc_table_refreshes_total"),
		rebuilds:     reg.Counter("placesvc_snapshot_rebuilds_total"),
		adoptions:    reg.Counter("placesvc_snapshot_adoptions_total"),
		batchSize:    reg.Histogram("placesvc_batch_size", batchSizeBuckets),
		queueLatency: reg.Timer("placesvc_queue_latency_seconds"),
		queueDepth:   reg.Gauge("placesvc_queue_depth"),
		vms:          reg.Gauge("placesvc_vms"),
		usedPMs:      reg.Gauge("placesvc_used_pms"),
		version:      reg.Gauge("placesvc_snapshot_version"),
	}
	if policyName != "" {
		reg.Help("admission_sheds_total", "VMs shed by the admission policy, by policy and class.")
		reg.Help("admission_queue_depth", "Commit queue depth as observed at the latest admission decision.")
		reg.Help("admission_shed_rate_ewma", "EWMA of the per-decision shed fraction (α = 1/64).")
		m.sheds = make([]*telemetry.Counter, len(admission.Classes))
		for i, class := range admission.Classes {
			m.sheds[i] = reg.Counter(telemetry.WithLabels("admission_sheds_total",
				"policy", policyName, "class", class.String()))
		}
		m.admQueueDepth = reg.Gauge("admission_queue_depth")
		m.shedEwma = reg.Gauge("admission_shed_rate_ewma")
	}
	return m
}
