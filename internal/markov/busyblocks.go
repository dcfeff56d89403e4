package markov

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/linalg"
)

// BusyBlocks is the (k+1)-state Markov chain {θ(t)} of Fig. 4: θ(t) is the
// number of collocated VMs that are simultaneously ON (equivalently, the
// number of busy reservation blocks) among k independent ON-OFF sources with
// common switch probabilities. In queuing-theoretic terms it is the
// state process of a discrete-time finite-source Geom/Geom/k queue with no
// waiting room.
//
// The stationary distribution is available in closed form (Binomial(k, q)
// with q the per-source ON probability — see Stationary), so the Eq. (12)
// transition matrix is only materialised when a caller actually needs it
// (the mean time to violation, the test-side oracles). All lazy
// state is initialised through sync.Once, so a BusyBlocks value may be shared
// by concurrent readers.
type BusyBlocks struct {
	k     int
	chain OnOff

	// Cached binomial kernels: leaveRows[i] is the PMF of O(t) ~ B(i, p_off)
	// (departures among i busy sources), enterRows[n] the PMF of
	// I(t) ~ B(n, p_on) (arrivals among n idle sources). Both the matrix
	// build and the occupancy sampler are assembled from these rows.
	rowsOnce  sync.Once
	leaveRows [][]float64
	enterRows [][]float64

	matrixOnce sync.Once
	p          *linalg.Matrix // (k+1)×(k+1) one-step transition matrix, Eq. (12)

	samplerOnce sync.Once
	leaveCDF    [][]float64
	enterCDF    [][]float64
}

// NewBusyBlocks builds the chain for k sources. It validates the switch
// probabilities via NewOnOff; the transition matrix is built lazily on first
// use.
func NewBusyBlocks(k int, pOn, pOff float64) (*BusyBlocks, error) {
	if k < 1 {
		return nil, fmt.Errorf("markov: need at least one source, got k = %d", k)
	}
	chain, err := NewOnOff(pOn, pOff)
	if err != nil {
		return nil, err
	}
	return &BusyBlocks{k: k, chain: chain}, nil
}

// K returns the number of sources (hosted VMs).
func (b *BusyBlocks) K() int { return b.k }

// Source returns the underlying per-VM ON-OFF chain.
func (b *BusyBlocks) Source() OnOff { return b.chain }

// rows builds (once) the cached departure/arrival PMF rows.
func (b *BusyBlocks) rows() ([][]float64, [][]float64) {
	b.rowsOnce.Do(func() {
		b.leaveRows = make([][]float64, b.k+1)
		b.enterRows = make([][]float64, b.k+1)
		for n := 0; n <= b.k; n++ {
			b.leaveRows[n] = BinomialPMFRow(n, b.chain.POff)
			b.enterRows[n] = BinomialPMFRow(n, b.chain.POn)
		}
	})
	return b.leaveRows, b.enterRows
}

// matrix returns the lazily built transition matrix.
func (b *BusyBlocks) matrix() *linalg.Matrix {
	b.matrixOnce.Do(func() {
		b.p = b.buildTransitionMatrix()
	})
	return b.p
}

// TransitionMatrix returns a copy of the one-step transition matrix P.
func (b *BusyBlocks) TransitionMatrix() *linalg.Matrix { return b.matrix().Clone() }

// buildTransitionMatrix computes Eq. (12):
//
//	p_ij = Σ_{r=0}^{i} C(i,r)·p_off^r·(1−p_off)^{i−r}
//	                 · C(k−i, j−i+r)·p_on^{j−i+r}·(1−p_on)^{k−j−r}
//
// the convolution of O(t) ~ B(i, p_off) leavers with I(t) ~ B(k−i, p_on)
// arrivals, where out-of-support binomial terms vanish. The binomial factors
// come from the cached PMF rows, so the innermost loop is a multiply-add —
// no Lgamma/Exp calls.
func (b *BusyBlocks) buildTransitionMatrix() *linalg.Matrix {
	k := b.k
	leave, enter := b.rows()
	p := linalg.NewMatrix(k+1, k+1)
	for i := 0; i <= k; i++ {
		leaveRow := leave[i]   // PMF of departures from i busy sources
		enterRow := enter[k-i] // PMF of arrivals from k−i idle sources
		for j := 0; j <= k; j++ {
			sum := 0.0
			for r := 0; r <= i; r++ {
				x := j - i + r
				if x < 0 {
					continue
				}
				if x >= len(enterRow) {
					break
				}
				sum += leaveRow[r] * enterRow[x]
			}
			p.Set(i, j, sum)
		}
	}
	return p
}

// TransitionProb returns p_ij from the cached matrix.
func (b *BusyBlocks) TransitionProb(i, j int) float64 { return b.matrix().At(i, j) }

// Stationary returns the limiting distribution Π of Eq. (13) in closed form:
// the k sources are independent, each ON with stationary probability
// q = p_on/(p_on+p_off), so θ is Binomial(k, q). The PMF row is computed by
// the O(k) multiplicative recurrence and renormalised; no matrix is built and
// no linear system is solved.
func (b *BusyBlocks) Stationary() []float64 {
	pi := BinomialPMFRow(b.k, b.chain.StationaryOn())
	sum := 0.0
	for _, v := range pi {
		sum += v
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi
}

// ExpectedBusy returns E[θ] under the stationary distribution. For k
// independent sources it must equal k·p_on/(p_on+p_off).
func (b *BusyBlocks) ExpectedBusy() float64 {
	mean := 0.0
	for m, p := range b.Stationary() {
		mean += float64(m) * p
	}
	return mean
}

// TailProbability returns Pr{θ > kBlocks} under the stationary distribution —
// the analytic capacity-violation ratio of a PM provisioned with kBlocks
// reservation blocks (Eq. 16).
func (b *BusyBlocks) TailProbability(kBlocks int) float64 {
	return TailFromStationary(b.Stationary(), kBlocks)
}

// TailFromStationary returns Pr{θ > kBlocks} = 1 − Σ_{m≤kBlocks} π_m given a
// stationary vector. Values of kBlocks at or above len(pi)−1 give 0, negative
// values give 1.
func TailFromStationary(pi []float64, kBlocks int) float64 {
	if kBlocks < 0 {
		return 1
	}
	if kBlocks >= len(pi)-1 {
		return 0
	}
	head := 0.0
	for m := 0; m <= kBlocks; m++ {
		head += pi[m]
	}
	tail := 1 - head
	if tail < 0 {
		return 0
	}
	return tail
}

// sampler builds (once) the cumulative forms of the cached PMF rows used by
// inverse-transform sampling in Step.
func (b *BusyBlocks) sampler() ([][]float64, [][]float64) {
	b.samplerOnce.Do(func() {
		leave, enter := b.rows()
		b.leaveCDF = make([][]float64, b.k+1)
		b.enterCDF = make([][]float64, b.k+1)
		for n := 0; n <= b.k; n++ {
			b.leaveCDF[n] = cumulativeRow(leave[n])
			b.enterCDF[n] = cumulativeRow(enter[n])
		}
	})
	return b.leaveCDF, b.enterCDF
}

// Step samples θ(t+1) given θ(t) = busy by drawing the binomial leaver and
// arrival counts (Eq. 8) by inverse transform over the cached PMF rows: two
// uniform draws per step regardless of k, instead of the k Bernoulli draws
// the previous implementation used. (The sampled law is identical, but the
// consumption of the RNG stream differs, so fixed-seed trajectories changed
// when this was introduced.)
func (b *BusyBlocks) Step(busy int, rng *rand.Rand) int {
	if busy < 0 || busy > b.k {
		panic(fmt.Sprintf("markov: busy count %d outside [0,%d]", busy, b.k))
	}
	leaveCDF, enterCDF := b.sampler()
	leavers := sampleCDF(leaveCDF[busy], rng)
	arrivals := sampleCDF(enterCDF[b.k-busy], rng)
	return busy - leavers + arrivals
}

// sampleCDF draws an index from a cumulative distribution row by binary
// search (inverse-transform sampling).
func sampleCDF(cdf []float64, rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(cdf, u)
	if i >= len(cdf) {
		// Unreachable: the final entry is pinned to 1 and u < 1.
		i = len(cdf) - 1
	}
	return i
}

// SimulateOccupancy runs the chain for steps transitions from the given start
// state and returns the empirical distribution of θ as a (k+1)-vector of
// visit frequencies. Used by tests to validate the analytic stationary
// distribution and by the CVR cross-check experiments.
func (b *BusyBlocks) SimulateOccupancy(start, steps int, rng *rand.Rand) ([]float64, error) {
	if start < 0 || start > b.k {
		return nil, fmt.Errorf("markov: start state %d outside [0,%d]", start, b.k)
	}
	if steps <= 0 {
		return nil, fmt.Errorf("markov: steps must be positive, got %d", steps)
	}
	counts := make([]float64, b.k+1)
	cur := start
	for t := 0; t < steps; t++ {
		cur = b.Step(cur, rng)
		counts[cur]++
	}
	for i := range counts {
		counts[i] /= float64(steps)
	}
	return counts, nil
}
