package main

import (
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fitindex"
	"repro/internal/markov"
	"repro/internal/placesvc"
	"repro/internal/queuing"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// runProbes measures single layers from outside on the workload's own fleet
// and script, then the workload-independent micro-probes. Only traced runs
// call it.
func runProbes(fx fixture, sz sizes, tr *tracer, parent int32, out map[string]float64) error {
	id := tr.begin(parent, "probes", "driver")
	defer tr.end(id, 0)
	b := fx.core()
	if err := probeSnapshots(b, tr, id, out); err != nil {
		return err
	}
	if err := probeBatches(b, tr, id, out); err != nil {
		return err
	}
	if err := probeOffline(fx, sz, tr, id, out); err != nil {
		return err
	}
	return probeMicro(tr, id, out)
}

// timeIt runs fn n times under one span and returns ns per call.
func timeIt(tr *tracer, parent int32, name, layer string, n int, fn func(i int)) float64 {
	id := tr.begin(parent, name, layer)
	t0 := nanos()
	for i := 0; i < n; i++ {
		fn(i)
	}
	ns := float64(nanos()-t0) / float64(n)
	tr.end(id, int64(n))
	return ns
}

// probeSnapshots replays the script against a fresh instrumented Service and
// takes a monitoring read after every chunk of ops, so each read meets a
// snapshot it has not materialised yet.
func probeSnapshots(b *base, tr *tracer, parent int32, out map[string]float64) error {
	const chunk, maxReads = 64, 256
	s := b.s
	reg := telemetry.NewRegistry()
	cfg := b.svcConfig()
	cfg.Registry = reg
	svc, err := placesvc.New(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	rec := newRecorder(s, len(s.ops), false)
	placed := make([]bool, s.maxID+1)
	at := min(s.warm, len(s.ops)/2)
	if err := rec.replay(svc, s, s.ops, 0, at, placed); err != nil {
		return err
	}
	var placeNs, overNs, readNs []int64
	for len(readNs) < maxReads && at < len(s.ops) {
		to := min(at+chunk, len(s.ops))
		if err := rec.replay(svc, s, s.ops, at, to, placed); err != nil {
			return err
		}
		at = to
		t, err := monitorRead(svc)
		if err != nil {
			return err
		}
		rid := tr.add(parent, "monitor.read", "driver", t[0], t[3], 0)
		tr.add(rid, "Placement", "placesvc", t[1], t[2], 0)
		tr.add(rid, "Overflows", "placesvc", t[2], t[3], 0)
		placeNs = append(placeNs, t[2]-t[1])
		overNs = append(overNs, t[3]-t[2])
		readNs = append(readNs, t[3]-t[0])
	}
	var sink *placesvc.Snapshot
	out["placesvc.snapshot_load_ns"] = timeIt(tr, parent, "Snapshot", "placesvc", 1_000_000, func(int) { sink = svc.Snapshot() })
	_ = sink
	out["placesvc.snapshot_placement_us"] = nsQuantilesUs(placeNs, 0.5)[0]
	out["placesvc.snapshot_overflows_us"] = nsQuantilesUs(overNs, 0.5)[0]
	q := nsQuantilesUs(readNs, 0.5, 0.9)
	out["placesvc.snapshot_read_p50_us"], out["placesvc.snapshot_read_p90_us"] = q[0], q[1]
	out["placesvc.snapshot_adoptions"] = float64(reg.Counter("placesvc_snapshot_adoptions_total").Value())
	out["placesvc.snapshot_rebuilds"] = float64(reg.Counter("placesvc_snapshot_rebuilds_total").Value())
	return nil
}

// probeBatches times ArriveBatch then DepartBatch of 64-VM batches from the
// workload's fleet on a fresh Service, per VM.
func probeBatches(b *base, tr *tracer, parent int32, out map[string]float64) error {
	const size = 64
	vms := b.vms[:min(len(b.vms), 4096)]
	svc, err := placesvc.New(b.svcConfig())
	if err != nil {
		return err
	}
	defer svc.Close()
	var placedIDs [][]int
	var n int64
	id := tr.begin(parent, "ArriveBatch", "placesvc")
	t0 := nanos()
	for lo := 0; lo < len(vms); lo += size {
		chunk := vms[lo:min(lo+size, len(vms))]
		unplaced, err := svc.ArriveBatch(chunk)
		if err != nil {
			return err
		}
		refused := make(map[int]bool, len(unplaced))
		for _, vm := range unplaced {
			refused[vm.ID] = true
		}
		ids := make([]int, 0, len(chunk))
		for _, vm := range chunk {
			if !refused[vm.ID] {
				ids = append(ids, vm.ID)
			}
		}
		placedIDs = append(placedIDs, ids)
		n += int64(len(chunk))
	}
	out["placesvc.arrive_batch_us_per_vm"] = float64(nanos()-t0) / 1e3 / float64(n)
	tr.end(id, n)
	n = 0
	id = tr.begin(parent, "DepartBatch", "placesvc")
	t0 = nanos()
	for _, ids := range placedIDs {
		if _, err := svc.DepartBatch(ids); err != nil {
			return err
		}
		n += int64(len(ids))
	}
	out["placesvc.depart_batch_us_per_vm"] = float64(nanos()-t0) / 1e3 / float64(max(n, 1))
	tr.end(id, n)
	return nil
}

// probeOffline runs the offline path — Table, Order, Place, then the
// simulator — on a slice of the workload's fleet. consolidate-sim already did
// exactly this in its traced round, at full size, and keeps those figures.
func probeOffline(fx fixture, sz sizes, tr *tracer, parent int32, out map[string]float64) error {
	b := fx.core()
	_, isCons := fx.(*consFix)
	vms := b.vms
	if !isCons {
		vms = vms[:min(len(vms), sz.probeVMs)]
	}
	pms, err := workload.GeneratePMs(len(vms), capMin, capMax, rand.New(rand.NewSource(b.sd+1)))
	if err != nil {
		return err
	}
	strat := core.QueuingFFD{Rho: rho, MaxVMsPerPM: maxVMs}
	var table *queuing.MappingTable
	out["core.table_s"] = timeIt(tr, parent, "QueuingFFD.Table", "core", 20, func(int) {
		if err == nil {
			table, err = strat.Table(vms)
		}
	}) / 1e9
	if err != nil {
		return err
	}
	out["core.order_s"] = timeIt(tr, parent, "QueuingFFD.Order", "core", 3, func(int) {
		if err == nil {
			_, err = strat.Order(vms)
		}
	}) / 1e9
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	traced := strat
	traced.Tracer = telemetry.NewMetrics(reg)
	if _, err := traced.Place(vms, pms); err != nil {
		return err
	}
	out["core.index_probes_per_query"] = float64(reg.Counter("placement_index_probes_total").Value()) /
		float64(reg.Counter("placement_index_queries_total").Value())
	if isCons {
		return nil
	}
	var res *core.Result
	out["core.place_s"] = timeIt(tr, parent, "QueuingFFD.Place", "core", 3, func(int) {
		if err == nil {
			res, err = strat.Place(vms, pms)
		}
	}) / 1e9
	if err != nil {
		return err
	}
	if v := cloud.CheckReserved(res.Placement, table); len(v) != 0 || len(res.Unplaced) != 0 {
		return gatef("offline probe: %d unplaced, %d PMs violate Eq. (17)", len(res.Unplaced), len(v))
	}
	ss, err := simulate(res.Placement, table, vms, b.sd, sz.probeIntervals, tr, parent)
	if err != nil {
		return err
	}
	ss.extras(out)
	return nil
}

// probeMicro times the leaf primitives the layers above are built from.
func probeMicro(tr *tracer, parent int32, out map[string]float64) error {
	rng := rand.New(rand.NewSource(1))
	var sinkI int
	firstFit := func(n int) float64 {
		t := fitindex.NewMaxTree(n)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = 100 * rng.Float64()
		}
		t.Fill(scores)
		needs := make([]float64, 1024)
		for i := range needs {
			// Near the maximum, so the search descends instead of stopping
			// at the first leaf.
			needs[i] = 95 + 5*rng.Float64()
		}
		return timeIt(tr, parent, "MaxTree.FirstAtLeast", "fitindex", 200_000, func(i int) {
			sinkI += t.FirstAtLeast(0, needs[i&1023])
		})
	}
	out["fitindex.first_fit_ns_1k"] = firstFit(1000)
	out["fitindex.first_fit_ns_20k"] = firstFit(20_000)
	tree := fitindex.NewMaxTree(20_000)
	scores := make([]float64, 20_000)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	out["fitindex.set_ns"] = timeIt(tr, parent, "MaxTree.Set", "fitindex", 200_000, func(i int) {
		tree.Set(i%20_000, scores[(i*7)%20_000])
	})
	out["fitindex.fill_us"] = timeIt(tr, parent, "MaxTree.Fill", "fitindex", 200, func(int) { tree.Fill(scores) }) / 1e3

	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	out["queuing.mapcal_ns"] = timeIt(tr, parent, "MapCal", "queuing", 200, func(int) {
		_, e := queuing.MapCal(64, pOn, pOff, rho)
		keep(e)
	})
	out["queuing.table_build_us"] = timeIt(tr, parent, "NewMappingTable", "queuing", 200, func(int) {
		_, e := queuing.NewMappingTable(maxVMs, pOn, pOff, rho)
		keep(e)
	}) / 1e3
	tables := queuing.NewTableCache()
	_, e := tables.NewMappingTable(maxVMs, pOn, pOff, rho)
	keep(e)
	out["queuing.table_cache_hit_ns"] = timeIt(tr, parent, "TableCache.NewMappingTable", "queuing", 200_000, func(int) {
		_, e := tables.NewMappingTable(maxVMs, pOn, pOff, rho)
		keep(e)
	})
	out["queuing.forecast_cold_ns"] = timeIt(tr, parent, "ForecastCache.ViolationAt(cold)", "queuing", 2000, func(i int) {
		// A fresh key per call: busy count and horizon sweep the key space
		// of one cache without ever repeating.
		_, e := queuing.NewForecastCache().ViolationAt(maxVMs, i%maxVMs, pOn, pOff, 10, 3)
		keep(e)
	})
	fc := queuing.NewForecastCache()
	_, e = fc.ViolationAt(maxVMs, 2, pOn, pOff, 10, 3)
	keep(e)
	out["queuing.forecast_hit_ns"] = timeIt(tr, parent, "ForecastCache.ViolationAt(hit)", "queuing", 200_000, func(int) {
		_, e := fc.ViolationAt(maxVMs, 2, pOn, pOff, 10, 3)
		keep(e)
	})
	row := make([]float64, 65)
	out["markov.pmf_row_ns"] = timeIt(tr, parent, "BinomialPMFRowInto", "markov", 20_000, func(int) {
		markov.BinomialPMFRowInto(row, 64, 0.3)
	})
	_ = sinkI
	return err
}
