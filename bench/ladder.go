package main

import (
	"fmt"
	"runtime"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placesvc"
	"repro/internal/shardsvc"
	"repro/internal/telemetry"
)

// rung is one boundary of the layer ladder: a way to build the backend that
// ends at that boundary. checked rungs must reproduce the sequential
// core.Online placement bit for bit; the 4-shard federation packs per shard
// and legitimately does not.
type rung struct {
	name    string
	layer   string // the layer the rung adds; its replay span carries it
	checked bool
	build   func() (backend, func(), error)
}

func (b *base) rungs() ([]rung, error) {
	adm, err := openAdmission()
	if err != nil {
		return nil, err
	}
	// The open-loop policy's pipeline, but with a bucket no replay can drain:
	// a single client replays far faster than 4 × 20k arrivals/s, and a shed
	// would change the placement the rung is checked against. Decide runs the
	// same code either way.
	adm.TokenBucket = &admission.TokenBucketConfig{Capacity: 1e15, RefillPerSec: 1e15}
	plain := func(b backend, err error) (backend, func(), error) { return b, func() {}, err }
	return []rung{
		{"driver", "driver", false, func() (backend, func(), error) { return noop{}, func() {}, nil }},
		{"core", "core", false, func() (backend, func(), error) {
			o, err := core.NewOnline(strategy(b.tables), b.s.pms, pOn, pOff)
			if err != nil {
				return nil, nil, err
			}
			o.Workers = workers
			return onlineBackend{o}, func() {}, nil
		}},
		{"service", "placesvc", true, func() (backend, func(), error) { return plain(placesvc.New(b.svcConfig())) }},
		{"fed1", "shardsvc", true, func() (backend, func(), error) { return plain(shardsvc.New(b.fedConfig(1))) }},
		{"fed4", "shardsvc", false, func() (backend, func(), error) { return plain(shardsvc.New(b.fedConfig(4))) }},
		{"admission", "admission", true, func() (backend, func(), error) {
			cfg := b.svcConfig()
			cfg.Admission = adm
			return plain(placesvc.New(cfg))
		}},
		{"obs", "obs", true, func() (backend, func(), error) {
			reg := telemetry.NewRegistry()
			plane := obs.NewPlane(obs.Options{Registry: reg})
			plane.Start()
			cfg := b.svcConfig()
			cfg.Registry, cfg.Obs = reg, plane
			svc, err := placesvc.New(cfg)
			return svc, plane.Close, err
		}},
	}, nil
}

// runLadder replays a prefix of the workload's script, one client, against
// each rung and reports the differences between rungs, which telescope:
// driver + core + hop + wrap + route = the 4-shard federation's ns per VM-op.
func runLadder(fx fixture, sz sizes, tr *tracer, parent int32, out map[string]float64) error {
	b := fx.core()
	s := b.s
	// The replayed prefix is the warm-up plus the ops that make up the next
	// sz.ladderOps VM-ops, so batch scripts cost a rung as much as single ones.
	warm := min(s.warm, len(s.ops)/2)
	n := warm
	var vmOps int64
	for ; n < len(s.ops) && vmOps < int64(sz.ladderOps); n++ {
		vmOps += s.vmOpsOf(&s.ops[n])
	}
	rungs, err := b.rungs()
	if err != nil {
		return err
	}
	lid := tr.begin(parent, "ladder", "driver")
	ns := make(map[string]float64, len(rungs))
	var want *oracle
	for _, rg := range rungs {
		reps := make([]float64, sz.ladderReps)
		for rep := range reps {
			be, done, err := rg.build()
			if err != nil {
				return fmt.Errorf("rung %s: %w", rg.name, err)
			}
			rec := newRecorder(s, n, false)
			placed := make([]bool, s.maxID+1)
			err = rec.replay(be, s, s.ops, 0, warm, placed)
			runtime.GC()
			id := tr.begin(lid, "rung."+rg.name, rg.layer)
			t0 := nanos()
			if err == nil {
				err = rec.replay(be, s, s.ops, warm, n, placed)
			}
			reps[rep] = float64(nanos()-t0) / float64(vmOps)
			tr.end(id, vmOps)
			if err == nil {
				want, err = checkRung(rg, be, s, rec, n, want)
			}
			if rg.name == "fed4" && err == nil {
				fs := be.(*shardsvc.Federation).FedStats()
				lo, hi := fs.Routed[0], fs.Routed[0]
				for _, r := range fs.Routed {
					lo, hi = min(lo, r), max(hi, r)
				}
				out["shardsvc.forwards"] = float64(fs.Forwards)
				out["shardsvc.route_imbalance"] = float64(hi) / float64(max(lo, 1))
			}
			be.Close()
			done()
			if err != nil {
				return fmt.Errorf("rung %s: %w", rg.name, err)
			}
		}
		ns[rg.name] = median(reps)
	}
	tr.end(lid, 0)
	out["driver.replay_ns_per_op"] = ns["driver"]
	out["core.online_ns_per_op"] = ns["core"] - ns["driver"]
	out["placesvc.hop_ns_per_op"] = ns["service"] - ns["core"]
	out["shardsvc.wrap_ns_per_op"] = ns["fed1"] - ns["service"]
	out["shardsvc.route_ns_per_op"] = ns["fed4"] - ns["fed1"]
	out["ladder.top_ns_per_op"] = ns["fed4"]
	out["admission.decide_ns_per_op"] = ns["admission"] - ns["service"]
	out["obs.attach_ns_per_op"] = ns["obs"] - ns["service"]
	return nil
}

// checkRung applies the correctness gates to one finished rung replay. The
// core rung's own returns become the oracle for the prefix (and, where the
// script came with an oracle, are first checked against it); every checked
// rung above must then match it op for op and in its final placement.
func checkRung(rg rung, be backend, s *script, rec *recorder, n int, want *oracle) (*oracle, error) {
	switch {
	case rg.name == "core":
		if s.want != nil {
			if err := checkOracle(s, rec, &oracle{pm: s.want.pm, unplaced: s.want.unplaced, final: nil}, n, nil); err != nil {
				return nil, err
			}
		}
		w := &oracle{pm: rec.pm, unplaced: make([][]int, len(s.batches)), final: finalOf(be.(onlineBackend).Placement())}
		for i := 0; i < n; i++ {
			if o := s.ops[i]; o.kind == opArriveBatch {
				ids := make([]int, len(rec.unplaced[i]))
				for j, vm := range rec.unplaced[i] {
					ids[j] = vm.ID
				}
				w.unplaced[o.batch] = ids
			}
		}
		return w, nil
	case rg.name == "driver":
		return want, nil
	}
	// On a saturated script the 4-shard federation refuses other VMs than
	// the oracle did, so some scripted departures name VMs it never held.
	final, err := checkFinal(be, rec.count(s, s.ops, 0, n), rg.name == "fed4")
	if err != nil {
		return want, err
	}
	if rg.checked {
		return want, checkOracle(s, rec, want, n, final)
	}
	return want, nil
}
