// Package markov implements the continuous-time Markov chain (CTMC)
// machinery that the paper's Section 5 dependability analysis relies on:
// a chain builder with named states, transient solution by uniformization
// (Jensen's method) with an independent adaptive Runge–Kutta cross-check,
// and steady-state solution via the numerically stable GTH elimination.
package markov

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/linalg"
)

// Chain is a CTMC under construction or ready for analysis. States are
// identified by string labels; transitions carry constant rates
// (exponentially distributed holding times), matching the paper's fault
// model of constant, exponentially distributed component failure rates.
type Chain struct {
	labels  []string
	index   map[string]int
	entries []linalg.Triplet // off-diagonal rates only
	frozen  bool
	gen     *linalg.CSR // built lazily by Generator

	// Memoized by Generator so uniformization setup is O(nnz) once:
	// the row exit rates (negated diagonal of Q) and their maximum (Λ).
	exit    []float64
	maxExit float64

	// The uniformized DTMC P = I + Q/Λ and a pool of solver scratch
	// state, built once per sealed chain and shared by every transient
	// and occupancy query (see solver.go).
	uniOnce sync.Once
	uni     *linalg.CSR
	solvers sync.Pool
}

// NewChain returns an empty chain.
func NewChain() *Chain {
	return &Chain{index: make(map[string]int)}
}

// State interns the label and returns its index, adding a new state if the
// label has not been seen. Adding states after the generator has been built
// panics, because analyses already performed would silently be invalidated.
func (c *Chain) State(label string) int {
	if i, ok := c.index[label]; ok {
		return i
	}
	if c.frozen {
		panic(fmt.Sprintf("markov: state %q added after generator was built", label))
	}
	i := len(c.labels)
	c.labels = append(c.labels, label)
	c.index[label] = i
	return i
}

// Lookup returns the index of the label and whether it exists.
func (c *Chain) Lookup(label string) (int, bool) {
	i, ok := c.index[label]
	return i, ok
}

// Label returns the label of state i.
func (c *Chain) Label(i int) string { return c.labels[i] }

// Len returns the number of states.
func (c *Chain) Len() int { return len(c.labels) }

// Transition adds a transition from -> to with the given rate. Zero-rate
// transitions are ignored; negative rates and self-loops panic.
func (c *Chain) Transition(from, to string, rate float64) {
	if rate == 0 {
		return
	}
	if rate < 0 {
		panic(fmt.Sprintf("markov: negative rate %g on %s -> %s", rate, from, to))
	}
	if from == to {
		panic(fmt.Sprintf("markov: self-loop on state %s", from))
	}
	f, t := c.State(from), c.State(to)
	if c.frozen {
		panic("markov: transition added after generator was built")
	}
	c.entries = append(c.entries, linalg.Triplet{Row: f, Col: t, Val: rate})
}

// Generator returns the chain's generator matrix Q in sparse form: the
// added rates off the diagonal and row-sum-negated diagonals. The chain is
// frozen on first call.
func (c *Chain) Generator() *linalg.CSR {
	if c.gen != nil {
		return c.gen
	}
	c.frozen = true
	n := len(c.labels)
	diag := make([]float64, n)
	trips := make([]linalg.Triplet, 0, len(c.entries)+n)
	// Merge duplicate off-diagonal entries first so the diagonal is exact.
	sort.Slice(c.entries, func(i, j int) bool {
		if c.entries[i].Row != c.entries[j].Row {
			return c.entries[i].Row < c.entries[j].Row
		}
		return c.entries[i].Col < c.entries[j].Col
	})
	for _, e := range c.entries {
		diag[e.Row] -= e.Val
		trips = append(trips, e)
	}
	for i, d := range diag {
		if d != 0 {
			trips = append(trips, linalg.Triplet{Row: i, Col: i, Val: d})
		}
	}
	// Memoize the exit rates alongside the matrix: ExitRate/MaxExitRate
	// are on the uniformization setup path and must not pay a per-call
	// binary search over the CSR, let alone a rebuild.
	c.exit = make([]float64, n)
	c.maxExit = 0
	for i, d := range diag {
		c.exit[i] = -d
		if c.exit[i] > c.maxExit {
			c.maxExit = c.exit[i]
		}
	}
	c.gen = linalg.NewCSR(n, n, trips)
	return c.gen
}

// uniformized returns the cached uniformized DTMC P = I + Q/Λ and Λ
// itself, building both exactly once per sealed chain. When the chain
// has no transitions at all (Λ = 0) the matrix is nil.
func (c *Chain) uniformized() (*linalg.CSR, float64) {
	c.uniOnce.Do(func() {
		q := c.Generator()
		if c.maxExit > 0 {
			c.uni = q.ScaleAddIdentity(1 / c.maxExit)
		}
	})
	return c.uni, c.maxExit
}

// DenseGenerator returns the generator as a dense matrix (for GTH and for
// tests on small chains).
func (c *Chain) DenseGenerator() *linalg.Dense { return c.Generator().Dense() }

// MaxExitRate returns the largest departure rate over all states, the Λ of
// uniformization. Memoized with the generator; O(1) after sealing.
func (c *Chain) MaxExitRate() float64 {
	c.Generator()
	return c.maxExit
}

// InitialPoint returns a distribution concentrated on the given state.
func (c *Chain) InitialPoint(label string) []float64 {
	i, ok := c.Lookup(label)
	if !ok {
		panic(fmt.Sprintf("markov: unknown initial state %q", label))
	}
	v := make([]float64, c.Len())
	v[i] = 1
	return v
}

// SteadyState returns the stationary distribution of the chain computed
// with GTH elimination. The chain must be irreducible.
func (c *Chain) SteadyState() []float64 {
	return linalg.GTHSteadyState(c.DenseGenerator())
}

// ProbabilityOf sums the probability mass of the states selected by keep.
func (c *Chain) ProbabilityOf(dist []float64, keep func(label string) bool) float64 {
	if len(dist) != c.Len() {
		panic("markov: distribution length mismatch")
	}
	s := 0.0
	for i, p := range dist {
		if keep(c.labels[i]) {
			s += p
		}
	}
	return s
}
