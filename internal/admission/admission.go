// Package admission is the SLO-aware admission-control layer that sits ahead
// of the serving plane's commit queue (internal/placesvc) and the open-system
// simulator's arrival path (internal/sim churn): it decides *whether* the
// fleet should accept a request at all, where the paper's Eq. (17) test only
// decides *where* a VM fits. Under bursty arrivals — the paper's whole
// premise — admitting everything turns overload into ErrNoCapacity storms;
// the policies here make the plane degrade gracefully instead: a token
// bucket smooths bursts (calibrated so it smooths rather than sheds — see
// the calibration note on TokenBucketConfig), an occupancy-threshold gate
// with a hysteresis band sheds load before the fleet saturates (the
// mean-field threshold-workload-control frame), and priority classes let
// low-value work be shed first.
//
// Determinism contract: a Policy consults no clock and no RNG — every
// decision is a pure function of the policy's configuration and the request
// sequence it has seen (timestamps included). Feeding the same sequence of
// Requests to two policies compiled from the same Config yields bit-identical
// decisions; a seeded workload driving the policy through virtual timestamps
// therefore replays its shed decisions exactly (pinned by
// TestPolicyDeterminism). Policies are single-writer: callers serialise
// Decide calls (placesvc does so under its admission mutex).
package admission

import (
	"errors"
	"fmt"
	"math"
)

// ErrShed is the sentinel wrapped by every shed rejection. It is distinct
// from cloud.ErrNoCapacity on purpose: a shed is a policy refusing work the
// fleet could perhaps still pack, so callers can retry later or downgrade,
// while ErrNoCapacity means Eq. (17) found no feasible PM.
var ErrShed = errors.New("admission: request shed")

// Class is the request priority class. Higher values are more important;
// policies shed lower classes first.
type Class uint8

const (
	// ClassBatch is preemptible bulk work — shed first.
	ClassBatch Class = iota
	// ClassStandard is the default interactive class.
	ClassStandard
	// ClassCritical is never shed by the occupancy gate (unless explicitly
	// configured) and bypasses the token bucket.
	ClassCritical

	numClasses = 3
)

// Classes lists all classes in shed order (lowest priority first).
var Classes = [numClasses]Class{ClassBatch, ClassStandard, ClassCritical}

// String returns the class's wire name ("batch", "standard", "critical").
func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassStandard:
		return "standard"
	case ClassCritical:
		return "critical"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass is the inverse of String.
func ParseClass(s string) (Class, error) {
	switch s {
	case "batch":
		return ClassBatch, nil
	case "standard":
		return ClassStandard, nil
	case "critical":
		return ClassCritical, nil
	}
	return 0, fmt.Errorf("admission: unknown class %q (want batch, standard, or critical)", s)
}

// Request is one admission question put to a policy.
type Request struct {
	// TimeNs is the arrival timestamp in nanoseconds on any monotone clock —
	// wall time in the serving plane, virtual (interval-derived) time in the
	// simulator and in deterministic replays. Only gaps between successive
	// timestamps matter.
	TimeNs int64
	// Cost is the number of VMs the request asks to place (≥ 1; the token
	// bucket charges 1 token per VM).
	Cost int
	// Class is the request's priority class.
	Class Class
	// Occupancy is the fleet's current slot occupancy in [0, 1] — placed VMs
	// over alive-PM slots — as observed by the caller. NaN means unknown and
	// disables occupancy-based decisions for this request.
	Occupancy float64
}

// Decision is a policy's answer.
type Decision struct {
	// Admit is true when the request may proceed to placement.
	Admit bool
	// Reason names the sub-policy that shed ("token_bucket", "occupancy");
	// empty on admit.
	Reason string
}

var admit = Decision{Admit: true}

// Policy decides admissions. Implementations keep internal state (bucket
// levels, hysteresis flags) but consult no clock and no RNG: decisions are
// pure functions of (config, request sequence). Not safe for concurrent use —
// callers serialise Decide.
type Policy interface {
	// Name identifies the policy in metrics labels and logs.
	Name() string
	// Decide answers one request. Requests must be fed in non-decreasing
	// TimeNs order; a timestamp regression is treated as zero elapsed time.
	Decide(Request) Decision
}

// NoOp admits everything — the always-admit baseline. A service configured
// with it behaves bit-identically to one with no policy at all.
type NoOp struct{}

// Name returns "noop".
func (NoOp) Name() string { return "noop" }

// Decide admits.
func (NoOp) Decide(Request) Decision { return admit }

// TokenBucket is the burst-smoothing rate limiter: a bucket of Capacity
// tokens refilling at RefillPerSec, charging one token per VM. Sized per the
// calibration note on TokenBucketConfig it absorbs bursts and sheds only
// sustained over-rate load; sized near the per-request cost it degenerates
// into pure load shedding (the SNIPPETS H5 trap, pinned by
// TestTokenBucketCalibration).
type TokenBucket struct {
	capacity    float64
	refillNsInv float64 // refill per nanosecond
	exemptCrit  bool

	tokens  float64
	lastNs  int64
	started bool
}

// NewTokenBucket builds a bucket from a validated config.
func NewTokenBucket(cfg TokenBucketConfig) (*TokenBucket, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &TokenBucket{
		capacity:    cfg.Capacity,
		refillNsInv: cfg.RefillPerSec / 1e9,
		exemptCrit:  cfg.exemptCritical(),
		tokens:      cfg.Capacity, // start full: the first burst is the one to smooth
	}, nil
}

// Name returns "token_bucket".
func (b *TokenBucket) Name() string { return "token_bucket" }

// Decide refills by the elapsed time since the previous request and admits
// when the bucket holds Cost tokens. ClassCritical bypasses the bucket
// (admitted without consuming) unless the config disabled the exemption.
func (b *TokenBucket) Decide(r Request) Decision {
	if !b.started {
		b.started = true
		b.lastNs = r.TimeNs
	} else if dt := r.TimeNs - b.lastNs; dt > 0 {
		b.tokens = math.Min(b.capacity, b.tokens+float64(dt)*b.refillNsInv)
		b.lastNs = r.TimeNs
	}
	if b.exemptCrit && r.Class == ClassCritical {
		return admit
	}
	cost := float64(max(r.Cost, 1))
	if b.tokens >= cost {
		b.tokens -= cost
		return admit
	}
	return Decision{Reason: "token_bucket"}
}

// Tokens exposes the current bucket level (tests, gauges).
func (b *TokenBucket) Tokens() float64 { return b.tokens }

// OccupancyGate is the threshold-workload-control policy: it starts shedding
// a class once fleet occupancy crosses the class's shed threshold and keeps
// shedding until occupancy falls back below the resume threshold — the
// hysteresis band prevents flapping at the boundary. Batch gets its own
// (lower) band so low-priority work is shed first; critical is only shed
// when the config says so.
type OccupancyGate struct {
	shedAbove        float64
	resumeBelow      float64
	batchShedAbove   float64
	batchResumeBelow float64
	shedCritical     bool

	shedding      bool // standard/critical gate state
	batchShedding bool
}

// NewOccupancyGate builds a gate from a validated config.
func NewOccupancyGate(cfg OccupancyConfig) (*OccupancyGate, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bShed, bResume := cfg.batchBand()
	return &OccupancyGate{
		shedAbove:        cfg.ShedAbove,
		resumeBelow:      cfg.ResumeBelow,
		batchShedAbove:   bShed,
		batchResumeBelow: bResume,
		shedCritical:     cfg.ShedCritical,
	}, nil
}

// Name returns "occupancy".
func (g *OccupancyGate) Name() string { return "occupancy" }

// Decide updates both hysteresis gates from the request's observed occupancy
// and sheds according to the request's class. An unknown (NaN) occupancy
// leaves the gates untouched and admits.
func (g *OccupancyGate) Decide(r Request) Decision {
	occ := r.Occupancy
	if math.IsNaN(occ) {
		return admit
	}
	switch {
	case !g.shedding && occ >= g.shedAbove:
		g.shedding = true
	case g.shedding && occ <= g.resumeBelow:
		g.shedding = false
	}
	switch {
	case !g.batchShedding && occ >= g.batchShedAbove:
		g.batchShedding = true
	case g.batchShedding && occ <= g.batchResumeBelow:
		g.batchShedding = false
	}
	shed := false
	switch r.Class {
	case ClassBatch:
		shed = g.batchShedding || g.shedding
	case ClassStandard:
		shed = g.shedding
	case ClassCritical:
		shed = g.shedding && g.shedCritical
	}
	if shed {
		return Decision{Reason: "occupancy"}
	}
	return admit
}

// Shedding exposes the main gate's hysteresis state (tests, gauges).
func (g *OccupancyGate) Shedding() bool { return g.shedding }

// Pipeline composes the configured policies in a fixed order: the occupancy
// gate first (it reads fleet state and costs nothing), then the token bucket
// (so occupancy sheds never consume tokens). The first shed wins.
type Pipeline struct {
	name string
	occ  *OccupancyGate
	tb   *TokenBucket
}

// Name returns the composed name, e.g. "occupancy+token_bucket", or "noop"
// for an empty pipeline.
func (p *Pipeline) Name() string { return p.name }

// Decide runs the stages in order; the first shed wins.
func (p *Pipeline) Decide(r Request) Decision {
	if p.occ != nil {
		if d := p.occ.Decide(r); !d.Admit {
			return d
		}
	}
	if p.tb != nil {
		return p.tb.Decide(r)
	}
	return admit
}
