// Package models builds the exact continuous-time Markov chains of the
// paper's Section 5: the BDR and DRA linecard reliability models of
// Figure 5(a)/(b) and their availability variants with a repair process,
// parameterized by the published failure rates. The ambiguities in the
// paper's state definitions are resolved as documented in DESIGN.md; the
// resulting models reproduce every anchor value readable from the paper
// (BDR R(40 000 h) ≈ 0.45, availability bands 9^4/9^3 for BDR and
// 9^8/9^7 for single-cover DRA, saturation at 9^9/9^8 for M ≥ 4).
package models

import (
	"fmt"

	"repro/internal/markov"
)

// Params carries the model parameters of Section 5.
type Params struct {
	// N is the number of linecards; M is the number of LCs (including
	// LCUA) implementing LCUA's protocol.
	N, M int

	// LambdaLPD and LambdaLPI split the LC-under-analysis failure rate:
	// λ_LC = λ_LPD + λ_LPI.
	LambdaLPD float64
	LambdaLPI float64
	// LambdaBC is the failure rate of LCUA's bus controller; LambdaBUS
	// that of the EIB passive lines.
	LambdaBC  float64
	LambdaBUS float64
	// LambdaPD and LambdaPI are the combined rates of an intermediate
	// LC's PDLU+controller and PI-units+controller, respectively.
	LambdaPD float64
	LambdaPI float64
	// Mu is the repair rate (availability models only). The repair
	// restores the whole system to state (0, 0).
	Mu float64
}

// PaperParams returns the constants of Section 5 for the given N and M.
func PaperParams(n, m int) Params {
	return Params{
		N:         n,
		M:         m,
		LambdaLPD: 6e-6,
		LambdaLPI: 1.4e-5,
		LambdaBC:  1e-6,
		LambdaBUS: 1e-6,
		LambdaPD:  7e-6,   // λ_LPD + λ_BC
		LambdaPI:  1.5e-5, // λ_LPI + λ_BC
	}
}

// LambdaLC returns λ_LC = λ_LPD + λ_LPI.
func (p Params) LambdaLC() float64 { return p.LambdaLPD + p.LambdaLPI }

// Validate rejects out-of-range parameters.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("models: N = %d, need ≥ 2", p.N)
	}
	if p.M < 1 || p.M > p.N {
		return fmt.Errorf("models: M = %d outside [1, N=%d]", p.M, p.N)
	}
	for _, v := range []float64{p.LambdaLPD, p.LambdaLPI, p.LambdaBC, p.LambdaBUS, p.LambdaPD, p.LambdaPI, p.Mu} {
		if v < 0 {
			return fmt.Errorf("models: negative rate %g", v)
		}
	}
	return nil
}

// Model is a built dependability chain ready for analysis.
type Model struct {
	// Name describes the model for reports.
	Name  string
	chain *markov.Chain
	init  string
	p     Params
}

// Chain exposes the underlying CTMC.
func (m *Model) Chain() *markov.Chain { return m.chain }

// FailState is the label of the absorbing/down state F.
const FailState = "F"

// IsOperational reports whether a state label is an operational state.
func IsOperational(label string) bool { return label != FailState }

// ReliabilityAt returns R(t): the probability that LCUA has provided
// uninterrupted packet service over [0, t].
func (m *Model) ReliabilityAt(t float64) float64 {
	dist := m.chain.TransientAt(m.chain.InitialPoint(m.init), t)
	return m.chain.ProbabilityOf(dist, IsOperational)
}

// ReliabilitySeries evaluates R over a time grid. Sorted grids (the
// common case — every figure sweep uses one) are solved in a single
// checkpointed uniformization pass; unsorted grids fall back to
// independent per-point solves.
func (m *Model) ReliabilitySeries(times []float64) []float64 {
	p0 := m.chain.InitialPoint(m.init)
	out := make([]float64, len(times))
	if sortedTimes(times) {
		for i, dist := range m.chain.TransientSeries(p0, times) {
			out[i] = m.chain.ProbabilityOf(dist, IsOperational)
		}
		return out
	}
	for i, t := range times {
		dist := m.chain.TransientAt(p0, t)
		out[i] = m.chain.ProbabilityOf(dist, IsOperational)
	}
	return out
}

// ReliabilitySeriesSerialDense evaluates R over the grid with the seed
// solver preserved in markov's reference.go: dense-round-trip
// uniformization and one independent from-zero solve per point. It is
// the committed baseline BenchmarkSolverComparison measures the cached
// CSR-native solver against; not a production path.
func (m *Model) ReliabilitySeriesSerialDense(times []float64) []float64 {
	p0 := m.chain.InitialPoint(m.init)
	out := make([]float64, len(times))
	for i, dist := range m.chain.TransientSeriesSerialDense(p0, times) {
		out[i] = m.chain.ProbabilityOf(dist, IsOperational)
	}
	return out
}

func sortedTimes(times []float64) bool {
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			return false
		}
	}
	return true
}

// Availability returns the steady-state probability of being operational.
// It panics if the model was built without repair (the chain would be
// reducible).
func (m *Model) Availability() float64 {
	if m.p.Mu <= 0 {
		panic("models: Availability on a model without repair")
	}
	pi := m.chain.SteadyState()
	return m.chain.ProbabilityOf(pi, IsOperational)
}

// MTTF returns the mean time to the first service failure.
func (m *Model) MTTF() (float64, error) {
	return m.chain.MeanTimeToAbsorption(m.init, func(l string) bool { return l == FailState })
}

// AvailabilityAt returns the transient (point) availability A(t): the
// probability of being operational at time t on a repairable model. On a
// model without repair it coincides with R(t).
func (m *Model) AvailabilityAt(t float64) float64 {
	dist := m.chain.TransientAt(m.chain.InitialPoint(m.init), t)
	return m.chain.ProbabilityOf(dist, IsOperational)
}

// IntervalAvailability returns the expected fraction of [0, horizon]
// spent operational, computed exactly by the uniformization occupancy
// integral (the panels argument is retained for call-site compatibility
// and ignored). This is the quantity the Monte-Carlo availability
// estimator measures per replication, so the two are directly comparable
// at finite horizons where the steady state has not been reached.
func (m *Model) IntervalAvailability(horizon float64, panels int) float64 {
	if horizon <= 0 {
		return 1
	}
	up := m.chain.OccupancyIn(m.chain.InitialPoint(m.init), IsOperational, horizon, panels)
	return up / horizon
}

// --- BDR (Figure 5(a)) ---

// BDRReliability builds the two-state BDR chain: any LC component failure
// stops service.
func BDRReliability(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := markov.NewChain()
	c.State("Op")
	c.State(FailState)
	c.Transition("Op", FailState, p.LambdaLC())
	return &Model{Name: fmt.Sprintf("BDR reliability (λ_LC=%g)", p.LambdaLC()), chain: c, init: "Op", p: p}, nil
}

// BDRAvailability adds the repair transition to the BDR chain.
func BDRAvailability(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Mu <= 0 {
		return nil, fmt.Errorf("models: BDR availability needs μ > 0")
	}
	c := markov.NewChain()
	c.State("Op")
	c.State(FailState)
	c.Transition("Op", FailState, p.LambdaLC())
	c.Transition(FailState, "Op", p.Mu)
	return &Model{Name: fmt.Sprintf("BDR availability (μ=%g)", p.Mu), chain: c, init: "Op", p: p}, nil
}

// --- DRA (Figure 5(b)) ---

// State labels of the DRA chain.
func zState(p, q int) string { return fmt.Sprintf("Z(%d,%d)", p, q) }
func pdState(i int) string   { return fmt.Sprintf("PD_%d", i) }
func piState(j int) string   { return fmt.Sprintf("PI_%d", j) }

// TPrime is the state where only the EIB or LCUA's bus controller has
// failed and packets still flow through the switching fabric.
const TPrime = "T'"

// buildDRA constructs the DRA chain; withRepair adds μ transitions from
// every non-initial state back to Z(0,0).
func buildDRA(p Params, withRepair bool) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if withRepair && p.Mu <= 0 {
		return nil, fmt.Errorf("models: DRA availability needs μ > 0")
	}
	c := markov.NewChain()
	init := zState(0, 0)
	c.State(init)

	nPD := p.M - 1 // intermediate PDLU pool size
	nPI := p.N - 2 // intermediate PI pool size
	lcuaEIB := p.LambdaBUS + p.LambdaBC

	// Zone-LCinter: states Z(p, q) with p failed intermediate PDLUs and q
	// failed intermediate PI units, LCUA healthy. All are operational.
	for fp := 0; fp <= nPD; fp++ {
		for fq := 0; fq <= nPI; fq++ {
			s := zState(fp, fq)
			// Intermediate pool failures.
			if fp < nPD {
				c.Transition(s, zState(fp+1, fq), float64(nPD-fp)*p.LambdaPD)
			}
			if fq < nPI {
				c.Transition(s, zState(fp, fq+1), float64(nPI-fq)*p.LambdaPI)
			}
			// LCUA PDLU failure: covered while the PDLU pool has a
			// healthy member.
			if fp <= nPD-1 {
				c.Transition(s, pdState(fp), p.LambdaLPD)
			} else {
				c.Transition(s, FailState, p.LambdaLPD)
			}
			// LCUA PI failure: covered while the PI pool has a healthy
			// member.
			if fq <= nPI-1 {
				c.Transition(s, piState(fq), p.LambdaLPI)
			} else {
				c.Transition(s, FailState, p.LambdaLPI)
			}
			// EIB or LCUA bus-controller failure: fabric still works, so
			// service continues in T'.
			c.Transition(s, TPrime, lcuaEIB)
		}
	}

	// Zone-LCUA, PDLU branch: PD_i = LCUA's PDLU down, i of the nPD
	// intermediate PDLUs down, coverage in progress.
	for i := 0; i <= nPD-1; i++ {
		s := pdState(i)
		rate := float64(nPD-i) * p.LambdaPD
		if i+1 <= nPD-1 {
			c.Transition(s, pdState(i+1), rate)
		} else {
			c.Transition(s, FailState, rate)
		}
		// Losing the EIB or LCUA's controller while covered is fatal.
		c.Transition(s, FailState, lcuaEIB)
	}

	// Zone-LCUA, PI branch.
	for j := 0; j <= nPI-1; j++ {
		s := piState(j)
		rate := float64(nPI-j) * p.LambdaPI
		if j+1 <= nPI-1 {
			c.Transition(s, piState(j+1), rate)
		} else {
			c.Transition(s, FailState, rate)
		}
		c.Transition(s, FailState, lcuaEIB)
	}

	// T': LCUA still routes via the fabric; any LCUA failure is then
	// uncoverable.
	c.Transition(TPrime, FailState, p.LambdaLC())

	c.State(FailState)

	if withRepair {
		// Repair restores the whole system from any degraded state.
		for i := 0; i < c.Len(); i++ {
			if l := c.Label(i); l != init {
				c.Transition(l, init, p.Mu)
			}
		}
	}
	kind := "reliability"
	if withRepair {
		kind = "availability"
	}
	return &Model{
		Name:  fmt.Sprintf("DRA %s (N=%d, M=%d)", kind, p.N, p.M),
		chain: c,
		init:  init,
		p:     p,
	}, nil
}

// DRAReliability builds the Figure 5(b) reliability chain.
func DRAReliability(p Params) (*Model, error) { return buildDRA(p, false) }

// DRAAvailability builds the DRA chain with the repair process of §5.2.
func DRAAvailability(p Params) (*Model, error) { return buildDRA(p, true) }
