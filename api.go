// Package repro is a Go implementation of "Burstiness-aware Server
// Consolidation via Queuing Theory Approach in a Computing Cloud"
// (Luo & Qian, IPDPS 2013).
//
// The library consolidates virtual machines whose demand follows a two-state
// ON-OFF Markov chain onto the minimum number of physical machines while
// bounding each PM's capacity-violation ratio by a threshold ρ. The key
// primitive is MapCal (Algorithm 1), which treats the resources reserved on a
// PM as the serving windows of a finite-source Geom/Geom/K queue and computes
// the minimum number of windows whose stationary blocking probability stays
// below ρ; QueuingFFD (Algorithm 2) builds a complete cluster-sort-first-fit
// consolidation on top of it.
//
// This root package re-exports the public surface of the internal packages so
// downstream users import a single path:
//
//	import "repro"
//
//	vms := []repro.VM{{ID: 0, POn: 0.01, POff: 0.09, Rb: 10, Re: 5}, ...}
//	pms := []repro.PM{{ID: 0, Capacity: 100}, ...}
//	strategy := repro.QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}
//	result, err := strategy.Place(vms, pms)
//
// Sub-surfaces:
//
//   - Workload model and chains: OnOff, BusyBlocks (internal/markov)
//   - Reservation quantification: MapCal, MappingTable, GeomGeomK
//     (internal/queuing)
//   - Consolidation strategies: QueuingFFD, FFDByRp, FFDByRb, RBEX,
//     MultiDimFF, Online (internal/core)
//   - Datacenter simulation: Simulator, SimConfig, SimReport (internal/sim)
//   - Paper experiments: RunExperiment / ListExperiments
//     (internal/experiments)
package repro

import (
	"io"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/markov"
	"repro/internal/placesvc"
	"repro/internal/queuing"
	"repro/internal/shardsvc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Domain types (internal/cloud).
type (
	// VM is the paper's four-tuple V_i = (p_on, p_off, R_b, R_e).
	VM = cloud.VM
	// PM is a physical machine with one-dimensional capacity.
	PM = cloud.PM
	// Placement is the VM-to-PM mapping X.
	Placement = cloud.Placement
	// Violation reports a PM whose admission invariant does not hold.
	Violation = cloud.Violation
	// Fleet is the JSON interchange format for cmd/consolidate.
	Fleet = cloud.Fleet
	// MultiVM is a VM with multi-dimensional demand (§IV-E).
	MultiVM = cloud.MultiVM
	// MultiPM is a PM with multi-dimensional capacity.
	MultiPM = cloud.MultiPM
	// ResourceVec is a demand/capacity vector over resource dimensions.
	ResourceVec = cloud.ResourceVec
)

// Consolidation strategies (internal/core).
type (
	// Strategy is a consolidation algorithm.
	Strategy = core.Strategy
	// Result is the outcome of one consolidation run.
	Result = core.Result
	// QueuingFFD is the paper's Algorithm 2 ("QUEUE").
	QueuingFFD = core.QueuingFFD
	// FFDByRp provisions for peak workload ("RP").
	FFDByRp = core.FFDByRp
	// FFDByRb provisions for normal workload ("RB").
	FFDByRb = core.FFDByRb
	// RBEX reserves a fixed δ-fraction on each PM ("RB-EX").
	RBEX = core.RBEX
	// EffectiveSizing is the stochastic-bin-packing comparator ("SBP") from
	// the related work (§II refs [6], [10]).
	EffectiveSizing = core.EffectiveSizing
	// ConvolutionFF packs by the exact stationary overflow probability
	// ("CONV") — the tightest admission Eq. (5) permits, used as a bound.
	ConvolutionFF = core.ConvolutionFF
	// MultiDimFF is the §IV-E multi-dimensional extension.
	MultiDimFF = core.MultiDimFF
	// Online adapts QueuingFFD to arrivals and departures (§IV-E).
	Online = core.Online
	// MigrationPlan is an ordered, admission-safe set of moves between two
	// placements (the §IV-E periodic recalculation).
	MigrationPlan = core.Plan
	// Move relocates one VM between PMs.
	Move = core.Move
	// RoundingPolicy rounds heterogeneous switch probabilities.
	RoundingPolicy = core.RoundingPolicy
	// Placer selects the first-fit implementation (indexed vs linear scan).
	Placer = core.Placer
)

// First-fit placer implementations. PlacerIndexed (the default) answers each
// placement in O(log m) through a segment-tree index over per-PM headroom;
// PlacerLinear is the paper's O(m) scan, kept as a cross-validation oracle.
// Both produce identical placements.
const (
	PlacerIndexed = core.PlacerIndexed
	PlacerLinear  = core.PlacerLinear
)

// Rounding policies for heterogeneous fleets.
const (
	RoundMean         = core.RoundMean
	RoundConservative = core.RoundConservative
	RoundMedian       = core.RoundMedian
)

// NewOnline creates an online consolidator; see core.NewOnline.
func NewOnline(strategy QueuingFFD, pms []PM, pOn, pOff float64) (*Online, error) {
	return core.NewOnline(strategy, pms, pOn, pOff)
}

// Queuing theory (internal/queuing).
type (
	// MapCalResult is what Algorithm 1 derives for one (k, p_on, p_off, ρ).
	MapCalResult = queuing.Result
	// MappingTable caches mapping(k) for k ∈ [1, d].
	MappingTable = queuing.MappingTable
	// GeomGeomK analyses the finite-source queue a reserved PM realises.
	GeomGeomK = queuing.GeomGeomK
	// Transient answers time-dependent questions about a reserved PM
	// (violation probability over time, mixing time, time to first
	// violation).
	Transient = queuing.Transient
)

// NewTransient wraps a busy-blocks chain for transient queries, served by the
// closed-form engine (t-independent per query).
func NewTransient(k int, pOn, pOff float64) (*Transient, error) {
	return queuing.NewTransient(k, pOn, pOff)
}

// TransientSolver selects the engine behind a Transient: the closed-form
// Binomial-convolution fast path or the O(t·k²) matrix-power oracle it is
// cross-validated against.
type TransientSolver = queuing.TransientSolver

const (
	// TransientAuto picks the fast path (currently the closed form).
	TransientAuto = queuing.TransientAuto
	// TransientClosedForm forces the t-independent convolution engine.
	TransientClosedForm = queuing.TransientClosedForm
	// TransientMatrix forces the matrix-power oracle (cross-validation only).
	TransientMatrix = queuing.TransientMatrix
)

// NewTransientWithSolver wraps a busy-blocks chain with an explicit engine.
func NewTransientWithSolver(k int, pOn, pOff float64, solver TransientSolver) (*Transient, error) {
	return queuing.NewTransientWithSolver(k, pOn, pOff, solver)
}

// ErrNeverViolates is returned (wrapped) by Transient.MeanTimeToViolation
// when the reservation covers every block, so the violation set is empty.
var ErrNeverViolates = queuing.ErrNeverViolates

// ForecastCache memoises transient occupancy forecasts keyed by
// (k, busy, p_on, p_off, bucketed horizon) with singleflight semantics — the
// serving-plane companion to TableCache. Hits are bit-identical to cold
// solves.
type ForecastCache = queuing.ForecastCache

// NewForecastCache creates an empty forecast cache.
func NewForecastCache() *ForecastCache { return queuing.NewForecastCache() }

// SharedForecasts returns the process-wide default forecast cache, used by
// the obs probes and the simulator's forecast hook when none is injected.
func SharedForecasts() *ForecastCache { return queuing.SharedForecasts() }

// SweepPoint is one row of a sensitivity sweep over ρ or k.
type SweepPoint = queuing.SweepPoint

// SweepRho evaluates MapCal across CVR budgets for a fixed population.
func SweepRho(k int, pOn, pOff float64, rhos []float64) ([]SweepPoint, error) {
	return queuing.SweepRho(k, pOn, pOff, rhos)
}

// SweepK evaluates MapCal across populations at a fixed budget.
func SweepK(ks []int, pOn, pOff, rho float64) ([]SweepPoint, error) {
	return queuing.SweepK(ks, pOn, pOff, rho)
}

// MapCalHetero computes the minimum block count for VMs with individual
// switch probabilities, exactly (Poisson-binomial stationary occupancy) —
// no §IV-E rounding.
func MapCalHetero(pOns, pOffs []float64, rho float64) (queuing.HeteroResult, error) {
	return queuing.MapCalHetero(pOns, pOffs, rho)
}

// HeteroViolations audits a placement under the exact heterogeneous model.
func HeteroViolations(p *Placement, rho float64) ([]Violation, error) {
	return core.HeteroViolations(p, rho)
}

// MapCal runs Algorithm 1: the minimum number of reservation blocks for k
// collocated VMs under CVR threshold rho.
func MapCal(k int, pOn, pOff, rho float64) (MapCalResult, error) {
	return queuing.MapCal(k, pOn, pOff, rho)
}

// NewMappingTable precomputes mapping(k) for all k in [1, d].
func NewMappingTable(d int, pOn, pOff, rho float64) (*MappingTable, error) {
	return queuing.NewMappingTable(d, pOn, pOff, rho)
}

// TableCache memoises whole mapping tables keyed by (d, p_on, p_off, ρ) with
// singleflight semantics: concurrent requests for the same cohort perform one
// solve and share the instance. Point QueuingFFD.Tables,
// ExperimentOptions.Tables, and AdmissionConfig strategies at one cache to
// share tables across the whole process.
type TableCache = queuing.TableCache

// NewTableCache creates an empty mapping-table cache.
func NewTableCache() *TableCache { return queuing.NewTableCache() }

// SharedTables returns the process-wide default table cache, used by every
// online consolidator whose strategy doesn't carry its own.
func SharedTables() *TableCache { return queuing.SharedTables() }

// Admission serving (internal/placesvc).
type (
	// AdmissionService is the concurrent group-commit front-end over Online:
	// many callers submit arrivals/departures, one of them at a time commits
	// a batch, reads run against immutable snapshots the readers build.
	AdmissionService = placesvc.Service
	// AdmissionConfig parameterises an AdmissionService.
	AdmissionConfig = placesvc.Config
	// AdmissionSnapshot is an immutable view of the service state.
	AdmissionSnapshot = placesvc.Snapshot
	// AdmissionStats is the counter block published with each snapshot.
	AdmissionStats = placesvc.Stats
)

// ErrAdmissionClosed is returned for requests submitted after Close.
var ErrAdmissionClosed = placesvc.ErrClosed

// NewAdmissionService starts an admission service; see placesvc.New.
func NewAdmissionService(cfg AdmissionConfig) (*AdmissionService, error) {
	return placesvc.New(cfg)
}

// Federated admission serving (internal/shardsvc).
type (
	// Federation fronts several independent AdmissionService shards with
	// power-of-d-choices routing over their headroom counters, plus a
	// background rebalancer migrating VMs when shard headroom skews.
	Federation = shardsvc.Federation
	// FederationConfig parameterises a Federation.
	FederationConfig = shardsvc.Config
	// FederationStats is the federation's routing/rebalance counter block.
	FederationStats = shardsvc.FedStats
	// RebalanceConfig shapes the federation's background rebalancer.
	RebalanceConfig = shardsvc.RebalanceConfig
)

// NewFederation partitions the PM pool into shards and starts one admission
// service per shard; see shardsvc.New. A MaxShards = 1 federation is
// bit-identical to a single AdmissionService.
func NewFederation(cfg FederationConfig) (*Federation, error) {
	return shardsvc.New(cfg)
}

// Workload model (internal/markov, internal/workload).
type (
	// OnOff is the two-state workload chain of Fig. 2.
	OnOff = markov.OnOff
	// BusyBlocks is the (k+1)-state occupancy chain of Fig. 4.
	BusyBlocks = markov.BusyBlocks
	// WorkloadPattern distinguishes R_b = R_e, R_b > R_e, R_b < R_e.
	WorkloadPattern = workload.Pattern
	// FleetParams configures random fleet generation (Fig. 5 settings).
	FleetParams = workload.FleetParams
	// ThinkTime is the §V-D user think-time model.
	ThinkTime = workload.ThinkTime
	// ChainEstimate is the MLE fit of an ON-OFF chain to an observed trace.
	ChainEstimate = markov.Estimate
	// LevelFit is the two-level quantisation of a raw demand trace.
	LevelFit = markov.LevelFit
)

// FitVM fits the paper's four-tuple to a raw demand trace: two-level
// quantisation plus MLE of the switch probabilities — how an operator derives
// (p_on, p_off, R_b, R_e) from monitoring data.
func FitVM(demand []float64) (LevelFit, ChainEstimate, error) { return markov.FitVM(demand) }

// EstimateOnOff fits switch probabilities to an already-binarised trace.
func EstimateOnOff(trace []markov.State) (ChainEstimate, error) {
	return markov.EstimateOnOff(trace)
}

// Workload patterns.
const (
	PatternEqual      = workload.PatternEqual
	PatternSmallSpike = workload.PatternSmallSpike
	PatternLargeSpike = workload.PatternLargeSpike
)

// NewOnOff validates and constructs an ON-OFF chain.
func NewOnOff(pOn, pOff float64) (OnOff, error) { return markov.NewOnOff(pOn, pOff) }

// GenerateVMs samples a random fleet per the Fig. 5 settings.
func GenerateVMs(p FleetParams, rng *rand.Rand) ([]VM, error) {
	return workload.GenerateVMs(p, rng)
}

// GeneratePMs samples a PM pool with capacities in [capMin, capMax].
func GeneratePMs(n int, capMin, capMax float64, rng *rand.Rand) ([]PM, error) {
	return workload.GeneratePMs(n, capMin, capMax, rng)
}

// DefaultFleetParams returns the paper's per-pattern generation ranges.
func DefaultFleetParams(pattern WorkloadPattern, n int) FleetParams {
	return workload.DefaultFleetParams(pattern, n)
}

// Simulation (internal/sim).
type (
	// Simulator advances a placement through simulated time.
	Simulator = sim.Simulator
	// SimConfig parameterises a simulation run.
	SimConfig = sim.Config
	// SimReport summarises a finished run.
	SimReport = sim.Report
	// MigrationEvent records one live migration.
	MigrationEvent = sim.MigrationEvent
	// EnergyModel converts PM activity into energy (linear server model).
	EnergyModel = sim.EnergyModel
	// EnergyReport summarises a run's energy accounting.
	EnergyReport = sim.EnergyReport
	// DemandSource supplies per-VM workload states to the simulator.
	DemandSource = sim.DemandSource
	// TraceReplay replays recorded traces as a DemandSource.
	TraceReplay = workload.TraceReplay
)

// NewTraceReplay builds a replay demand source from recorded state traces.
func NewTraceReplay(traces map[int][]markov.State, loop bool) (*TraceReplay, error) {
	return workload.NewTraceReplay(traces, loop)
}

// NewSimulatorWithSource builds a simulator over a custom demand source
// (e.g. a TraceReplay), enabling trace-driven evaluation.
func NewSimulatorWithSource(p *Placement, table *MappingTable, cfg SimConfig, source DemandSource, rng *rand.Rand) (*Simulator, error) {
	return sim.NewWithSource(p, table, cfg, source, rng)
}

// DefaultEnergyModel returns a typical dual-socket server power profile.
func DefaultEnergyModel() EnergyModel { return sim.DefaultEnergyModel() }

// Open-system (churn) simulation.
type (
	// ChurnConfig extends a simulation with tenant arrivals/departures.
	ChurnConfig = sim.ChurnConfig
	// ChurnReport summarises an open-system run.
	ChurnReport = sim.ChurnReport
	// ChurnSimulator wraps the simulator with churn.
	ChurnSimulator = sim.ChurnSimulator
)

// NewChurnSimulator builds an open-system simulator over a clone of the
// placement.
func NewChurnSimulator(p *Placement, table *MappingTable, cfg ChurnConfig, rng *rand.Rand) (*ChurnSimulator, error) {
	return sim.NewChurn(p, table, cfg, rng)
}

// Controller management loop (reactive migration + periodic reconsolidation).
type (
	// Controller runs the simulator with a periodic Algorithm 2 re-pack.
	Controller = sim.Controller
	// ControllerReport extends SimReport with reconsolidation accounting.
	ControllerReport = sim.ControllerReport
)

// NewController wraps the simulator with a reconsolidation loop that re-packs
// the live fleet every `every` intervals.
func NewController(p *Placement, table *MappingTable, cfg SimConfig, strategy QueuingFFD, every int, rng *rand.Rand) (*Controller, error) {
	return sim.NewController(p, table, cfg, strategy, every, rng)
}

// NewSimulator builds a simulator over a clone of the placement.
func NewSimulator(p *Placement, table *MappingTable, cfg SimConfig, rng *rand.Rand) (*Simulator, error) {
	return sim.New(p, table, cfg, rng)
}

// Experiments (internal/experiments).

// ExperimentOptions configures a paper-experiment run.
type ExperimentOptions = experiments.Options

// RunExperiment regenerates one paper artifact (e.g. "fig5") to opt.Out.
func RunExperiment(id string, opt ExperimentOptions) error { return experiments.Run(id, opt) }

// RunAllExperiments regenerates every artifact in order.
func RunAllExperiments(opt ExperimentOptions) error { return experiments.RunAll(opt) }

// ListExperiments enumerates the reproducible artifacts.
func ListExperiments() []experiments.Experiment { return experiments.List() }

// ReadFleet decodes and validates a fleet spec from JSON.
func ReadFleet(r io.Reader) (*Fleet, error) { return cloud.ReadFleet(r) }

// Constraint checkers (internal/cloud).
var (
	// CheckPeak verifies Σ R_p ≤ C on every used PM.
	CheckPeak = cloud.CheckPeak
	// CheckNormal verifies Σ R_b ≤ C on every used PM.
	CheckNormal = cloud.CheckNormal
	// CheckReserved verifies Eq. (17) on every used PM.
	CheckReserved = cloud.CheckReserved
)
