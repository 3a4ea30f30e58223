package markov

import (
	"fmt"
	"testing"

	"repro/internal/linalg"
)

func TestPowerMatchesGTHTwoState(t *testing.T) {
	c := NewChain()
	c.Transition("up", "down", 2e-5)
	c.Transition("down", "up", 1.0/3)
	gth := c.SteadyState()
	pow, err := c.SteadyStatePower(1e-14, 0)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.MaxDiff(gth, pow) > 1e-8 {
		t.Fatalf("gth %v vs power %v", gth, pow)
	}
}

func TestPowerMatchesGTHCycle(t *testing.T) {
	// A 3-cycle is periodic as a plain DTMC; the inflated-Λ trick must
	// still converge.
	c := NewChain()
	c.Transition("a", "b", 1)
	c.Transition("b", "c", 1)
	c.Transition("c", "a", 1)
	gth := c.SteadyState()
	pow, err := c.SteadyStatePower(1e-14, 0)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.MaxDiff(gth, pow) > 1e-8 {
		t.Fatalf("gth %v vs power %v", gth, pow)
	}
}

func TestPowerNoTransitions(t *testing.T) {
	c := NewChain()
	c.State("only")
	pi, err := c.SteadyStatePower(0, 0)
	if err != nil || len(pi) != 1 || pi[0] != 1 {
		t.Fatalf("pi = %v, err = %v", pi, err)
	}
}

func TestPowerIterationBudget(t *testing.T) {
	// A stiff chain with a tiny rate needs many steps; a one-iteration
	// budget must error, not hang or return garbage.
	c := NewChain()
	c.Transition("up", "down", 1e-9)
	c.Transition("down", "up", 1)
	if _, err := c.SteadyStatePower(1e-15, 1); err == nil {
		t.Fatal("expected non-convergence error")
	}
}

// SteadyStatePower computes the stationary distribution by power iteration
// on the uniformized DTMC P = I + Q/Λ: π_{k+1} = π_k·P until the change
// falls below tol. It is the third independent steady-state method (after
// GTH and LU) and the only one that scales to chains too large for dense
// elimination; the DRA chains are small, so here it mainly serves as a
// cross-check.
//
// The chain must be irreducible (as the availability chains are). maxIter
// guards against non-convergence on nearly-reducible chains; 0 selects a
// generous default.
func (c *Chain) SteadyStatePower(tol float64, maxIter int) ([]float64, error) {
	if tol <= 0 {
		tol = 1e-13
	}
	if maxIter <= 0 {
		maxIter = 50_000_000
	}
	q := c.Generator()
	lambda := c.MaxExitRate()
	if lambda == 0 {
		out := make([]float64, c.Len())
		for i := range out {
			out[i] = 1 / float64(c.Len())
		}
		return out, nil
	}
	// Slightly inflate Λ so P has strictly positive diagonals, which
	// makes the DTMC aperiodic and power iteration convergent.
	p := q.ScaleAddIdentity(1 / (lambda * 1.05))

	cur := make([]float64, c.Len())
	next := make([]float64, c.Len())
	for i := range cur {
		cur[i] = 1 / float64(len(cur))
	}
	for it := 0; it < maxIter; it++ {
		p.VecMulTo(next, cur)
		if linalg.MaxDiff(cur, next) < tol {
			linalg.Normalize(next)
			return next, nil
		}
		cur, next = next, cur
	}
	return nil, fmt.Errorf("markov: power iteration did not converge in %d iterations", maxIter)
}
