// Command loadgen drives the placesvc admission service with N concurrent
// clients replaying a seeded ON-OFF workload, and reports admission
// throughput. It is the serving-path counterpart of cmd/simulate: the fleet's
// transitions come from workload.HashedFleet, whose draws are pure functions
// of (seed, VM id, interval) — so the workload each client replays is
// identical at any client count, and two runs with the same seed submit the
// same requests.
//
// Usage:
//
//	loadgen [-pms 1000] [-vms 4000] [-clients 4] [-ops 20000] [-batch 256]
//	        [-maxwait 0] [-workers GOMAXPROCS] [-shards 1] [-seed 42]
//	        [-rho 0.01] [-d 16]
//	        [-admission policy.json] [-rate 0] [-cv 3.5]
//	        [-trace t.jsonl] [-metrics-addr 127.0.0.1:9090]
//	        [-flight dumps.jsonl] [-flight-cap 4096]
//
// Each client owns a static partition of the fleet and walks it through the
// ON-OFF chain: an OFF→ON transition submits Arrive, an ON→OFF transition of
// a placed VM submits Depart. Rejected arrivals (pool exhaustion) are counted
// and the VM retries at its next OFF→ON transition. The run stops once the
// clients have submitted -ops requests in total.
//
// -admission loads an admission-policy JSON config (internal/admission) into
// the service; policy-refused arrivals are counted as shed, separately from
// capacity rejections, and the summary reports the combined rejected
// fraction. -rate paces arrival submissions to a mean of that many arrivals
// per second fleet-wide, with Gamma-distributed gaps of the given -cv
// (default 3.5, the paper's bursty regime; 0 = submit as fast as possible) —
// the knob that makes a calibrated token bucket meaningful under test.
//
// -shards > 1 swaps the single service for a shardsvc.Federation: the PM
// pool splits into that many independent shards and each arrival routes by
// power-of-two-choices over the shards' snapshot headroom. -workers sets each
// commit's fan-out width (default GOMAXPROCS).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/placesvc"
	"repro/internal/queuing"
	"repro/internal/shardsvc"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// onMetricsURL is a test hook invoked with the served /metrics URL once the
// observability endpoint is up.
var onMetricsURL = func(string) {}

// admitter is the slice of the admission surface the clients drive —
// satisfied by both *placesvc.Service and *shardsvc.Federation, so -shards
// swaps the backend without touching the client loop.
type admitter interface {
	Arrive(vm cloud.VM) (int, error)
	Depart(vmID int) error
	Stats() placesvc.Stats
	Close() error
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	pms      int
	vms      int
	clients  int
	ops      int
	batch    int
	maxWait  time.Duration
	workers  int
	shards   int
	seed     int64
	rho      float64
	d        int
	admPath  string
	rate     float64
	arriveCV float64
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var cfg config
	fs.IntVar(&cfg.pms, "pms", 1000, "PM pool size")
	fs.IntVar(&cfg.vms, "vms", 0, "fleet size (default 4×pms)")
	fs.IntVar(&cfg.clients, "clients", 4, "concurrent client goroutines")
	fs.IntVar(&cfg.ops, "ops", 20000, "total requests to submit across all clients")
	fs.IntVar(&cfg.batch, "batch", 256, "service MaxBatch (1 disables coalescing)")
	fs.DurationVar(&cfg.maxWait, "maxwait", 0, "service MaxWait batch-fill deadline (0 = commit whatever is queued)")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "commit fan-out width per shard")
	fs.IntVar(&cfg.shards, "shards", 1, "independent placesvc shards fronted by power-of-2 routing (1 = single service)")
	fs.Int64Var(&cfg.seed, "seed", 42, "workload seed")
	fs.Float64Var(&cfg.rho, "rho", 0.01, "CVR threshold ρ")
	fs.IntVar(&cfg.d, "d", 16, "max VMs per PM (table dimension)")
	fs.StringVar(&cfg.admPath, "admission", "", "admission-policy JSON config for the service (default: always admit)")
	fs.Float64Var(&cfg.rate, "rate", 0, "mean arrival submissions/sec fleet-wide (0 = unpaced)")
	fs.Float64Var(&cfg.arriveCV, "cv", 3.5, "coefficient of variation of the Gamma arrival gaps for -rate")
	var tf obs.Flags
	tf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.vms == 0 {
		cfg.vms = 4 * cfg.pms
	}
	if err := validate(cfg); err != nil {
		fs.Usage()
		return err
	}
	if _, err := tf.Activate(); err != nil {
		return err
	}
	defer tf.Close()
	if url := tf.MetricsURL(); url != "" {
		fmt.Fprintln(os.Stderr, "loadgen: serving metrics at", url)
		onMetricsURL(url)
	}
	reg := tf.Registry()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	// End-to-end Arrive latency rolls through the plane's window when the live
	// plane is on (exporting loadgen_admit_window_seconds quantile gauges), a
	// standalone window otherwise — the summary always has p50/p99.
	admitWin := obs.NewWindowedTimer(0, 0, nil)
	if plane := tf.Plane(); plane != nil {
		admitWin = plane.AdmitLatency
	}

	var admCfg *admission.Config
	if cfg.admPath != "" {
		var err error
		if admCfg, err = admission.Load(cfg.admPath); err != nil {
			return err
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	vms, err := workload.GenerateVMs(workload.DefaultFleetParams(workload.PatternEqual, cfg.vms), rng)
	if err != nil {
		return err
	}
	pms, err := workload.GeneratePMs(cfg.pms, 80, 100, rng)
	if err != nil {
		return err
	}
	strategy := core.QueuingFFD{Rho: cfg.rho, MaxVMsPerPM: cfg.d, Tables: queuing.SharedTables()}
	var svc admitter
	if cfg.shards > 1 {
		svc, err = shardsvc.New(shardsvc.Config{
			Strategy:  strategy,
			PMs:       pms,
			POn:       0.01,
			POff:      0.09,
			MaxShards: cfg.shards,
			Seed:      uint64(cfg.seed),
			MaxBatch:  cfg.batch,
			MaxWait:   cfg.maxWait,
			Workers:   cfg.workers,
			Registry:  reg,
			Obs:       tf.Plane(),
			Admission: admCfg,
		})
	} else {
		svc, err = placesvc.New(placesvc.Config{
			Strategy:  strategy,
			PMs:       pms,
			POn:       0.01,
			POff:      0.09,
			MaxBatch:  cfg.batch,
			MaxWait:   cfg.maxWait,
			Workers:   cfg.workers,
			Registry:  reg,
			Obs:       tf.Plane(),
			Admission: admCfg,
		})
	}
	if err != nil {
		return err
	}
	defer svc.Close()

	// Static round-robin partition: client c owns vms[c], vms[c+clients], …
	// HashedFleet trajectories are pure functions of (seed, id, t), so each
	// client stepping only its partition replays exactly the global fleet's
	// transitions for those VMs.
	start := time.Now()
	var wg sync.WaitGroup
	results := make([]clientResult, cfg.clients)
	for c := 0; c < cfg.clients; c++ {
		quota := cfg.ops / cfg.clients
		if c < cfg.ops%cfg.clients {
			quota++
		}
		var part []cloud.VM
		for i := c; i < len(vms); i += cfg.clients {
			part = append(part, vms[i])
		}
		if quota == 0 || len(part) == 0 {
			continue
		}
		// Each paced client submits at rate/clients with its own Gamma gap
		// stream, so the aggregate arrival stream has the configured mean.
		var pace *workload.ArrivalProcess
		if cfg.rate > 0 {
			paceRNG := rand.New(rand.NewSource(cfg.seed + int64(c)))
			if pace, err = workload.NewArrivalProcess(cfg.rate/float64(cfg.clients), cfg.arriveCV, paceRNG); err != nil {
				return err
			}
		}
		wg.Add(1)
		go func(c, quota int, part []cloud.VM, pace *workload.ArrivalProcess) {
			defer wg.Done()
			results[c] = runClient(svc, part, cfg.seed, quota, admitWin, pace)
		}(c, quota, part, pace)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total clientResult
	for _, r := range results {
		if r.err != nil && total.err == nil {
			total.err = r.err
		}
		total.ops += r.ops
		total.placed += r.placed
		total.rejected += r.rejected
		total.shed += r.shed
		total.departed += r.departed
	}
	if total.err != nil {
		return total.err
	}
	if total.ops == 0 {
		return fmt.Errorf("no requests submitted")
	}

	// Rejected fraction over arrival submissions only (departures are never
	// refused): policy sheds and capacity rejections both count against it.
	arrivalOps := total.placed + total.rejected + total.shed
	rejectedFrac := 0.0
	if arrivalOps > 0 {
		rejectedFrac = float64(total.rejected+total.shed) / float64(arrivalOps)
	}

	admitQs := admitWin.Quantiles(0.50, 0.99)
	var p50, p99 time.Duration
	if !math.IsNaN(admitQs[0]) { // NaN when the run had no arrivals
		p50 = time.Duration(admitQs[0] * float64(time.Second))
		p99 = time.Duration(admitQs[1] * float64(time.Second))
	}

	st := svc.Stats()
	fmt.Fprintf(stdout, "loadgen: m=%d PMs, %d VMs, %d clients, batch=%d, shards=%d, workers=%d, gomaxprocs=%d\n",
		cfg.pms, cfg.vms, cfg.clients, cfg.batch, cfg.shards, cfg.workers, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "  %d ops in %v: %.0f ops/sec\n", total.ops, elapsed.Round(time.Millisecond), float64(total.ops)/elapsed.Seconds())
	fmt.Fprintf(stdout, "  placed %d, rejected %d, shed %d, departed %d, live %d on %d PMs\n",
		total.placed, total.rejected, total.shed, total.departed, st.VMs, st.UsedPMs)
	fmt.Fprintf(stdout, "  rejected-fraction %.3f over %d arrivals\n", rejectedFrac, arrivalOps)
	fmt.Fprintf(stdout, "  %d commits, mean batch %.1f\n", st.Commits, float64(st.Requests)/float64(st.Commits))
	fmt.Fprintf(stdout, "  admit latency p50 %v, p99 %v (rolling window)\n", p50, p99)
	return nil
}

func validate(cfg config) error {
	if cfg.pms < 1 || cfg.vms < 1 {
		return fmt.Errorf("-pms and -vms must be ≥ 1")
	}
	if cfg.clients < 1 {
		return fmt.Errorf("-clients must be ≥ 1, got %d", cfg.clients)
	}
	if cfg.ops < 1 {
		return fmt.Errorf("-ops must be ≥ 1, got %d", cfg.ops)
	}
	if cfg.batch < 1 {
		return fmt.Errorf("-batch must be ≥ 1, got %d", cfg.batch)
	}
	if cfg.maxWait < 0 {
		return fmt.Errorf("-maxwait must be ≥ 0, got %v", cfg.maxWait)
	}
	if cfg.workers < 1 {
		return fmt.Errorf("-workers must be ≥ 1, got %d", cfg.workers)
	}
	if cfg.shards < 1 {
		return fmt.Errorf("-shards must be ≥ 1, got %d", cfg.shards)
	}
	if cfg.rho <= 0 || cfg.rho >= 1 {
		return fmt.Errorf("-rho = %v outside (0,1)", cfg.rho)
	}
	if cfg.d < 1 {
		return fmt.Errorf("-d must be ≥ 1, got %d", cfg.d)
	}
	if cfg.rate < 0 || math.IsNaN(cfg.rate) || math.IsInf(cfg.rate, 0) {
		return fmt.Errorf("-rate = %v, want finite and ≥ 0", cfg.rate)
	}
	if cfg.rate > 0 && (cfg.arriveCV <= 0 || math.IsNaN(cfg.arriveCV) || math.IsInf(cfg.arriveCV, 0)) {
		return fmt.Errorf("-cv = %v, want finite and > 0", cfg.arriveCV)
	}
	return nil
}

type clientResult struct {
	ops      int
	placed   int
	rejected int
	shed     int
	departed int
	err      error
}

// runClient walks its partition through the ON-OFF chain and submits the
// transitions until its quota of requests is spent. A non-nil pace sleeps a
// Gamma-distributed gap before each arrival submission.
func runClient(svc admitter, part []cloud.VM, seed int64, quota int, admit *obs.WindowedTimer, pace *workload.ArrivalProcess) clientResult {
	var res clientResult
	fleet, err := workload.NewHashedFleet(part, seed)
	if err != nil {
		res.err = err
		return res
	}
	prev := make(map[int]markov.State, len(part))
	placed := make(map[int]bool, len(part))
	for res.ops < quota {
		states := fleet.States()
		for id, st := range states {
			prev[id] = st
		}
		fleet.Step(nil)
		for _, vm := range part {
			if res.ops >= quota {
				return res
			}
			now := states[vm.ID]
			was := prev[vm.ID]
			switch {
			case was == markov.Off && now == markov.On && !placed[vm.ID]:
				if pace != nil {
					time.Sleep(time.Duration(pace.NextGapNs()))
				}
				res.ops++
				t0 := time.Now()
				_, err := svc.Arrive(vm)
				admit.Observe(time.Since(t0))
				if err != nil {
					if errors.Is(err, admission.ErrShed) {
						res.shed++
						continue
					}
					if errors.Is(err, cloud.ErrNoCapacity) {
						res.rejected++
						continue
					}
					res.err = err
					return res
				}
				res.placed++
				placed[vm.ID] = true
			case was == markov.On && now == markov.Off && placed[vm.ID]:
				res.ops++
				if err := svc.Depart(vm.ID); err != nil {
					res.err = err
					return res
				}
				res.departed++
				placed[vm.ID] = false
			}
		}
	}
	return res
}
