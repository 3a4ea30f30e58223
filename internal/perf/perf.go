// Package perf implements the closed-form performance-degradation
// analysis of the paper's Section 5.3: the bandwidth B_faulty available to
// each faulty linecard when X_faulty of a router's N linecards have
// failed, healthy LCs each offer spare capacity ψ = c_LC − L·c_LC, and
// the EIB's data lines cap the total coverage bandwidth at B_BUS.
package perf

import "fmt"

// Params parameterizes the §5.3 analysis.
type Params struct {
	// N is the number of linecards; one of them (LC_out) is assumed
	// fault-free, so X_faulty ranges over [0, N-1].
	N int
	// CLC is the per-LC capacity c_LC (the paper uses 10 Gbps).
	CLC float64
	// Load is the uniform link utilization L ∈ [0, 1].
	Load float64
	// BusCapacity is B_BUS. The paper never states it; DESIGN.md
	// documents the default of one LC capacity, which is consistent with
	// every Figure 8 data point.
	BusCapacity float64
}

// PaperParams returns the Figure 8 configuration for the given load:
// N = 6, c_LC = 10 Gbps, B_BUS = c_LC.
func PaperParams(load float64) Params {
	return Params{N: 6, CLC: 10e9, Load: load, BusCapacity: 10e9}
}

// Validate rejects out-of-range parameters.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("perf: N = %d, need ≥ 2", p.N)
	}
	if p.CLC <= 0 {
		return fmt.Errorf("perf: c_LC must be positive")
	}
	if p.Load < 0 || p.Load > 1 {
		return fmt.Errorf("perf: load %g outside [0, 1]", p.Load)
	}
	if p.BusCapacity <= 0 {
		return fmt.Errorf("perf: B_BUS must be positive")
	}
	return nil
}

// Psi returns ψ = c_LC − L·c_LC, the maximum bandwidth a non-faulty LC
// offers to faulty LCs.
func (p Params) Psi() float64 { return p.CLC * (1 - p.Load) }

// Demand returns the bandwidth a faulty LC needs to sustain its offered
// load, L·c_LC.
func (p Params) Demand() float64 { return p.CLC * p.Load }

// BFaulty returns the bandwidth available to each faulty LC when xFaulty
// LCs have failed. Per §5.3:
//
//   - each faulty LC asks for its demand L·c_LC;
//   - the covering pool is the X_nonfaulty = N − X_faulty healthy LCs,
//     contributing ψ each;
//   - ΣB_faulty cannot exceed B_BUS (the EIB promise formula scales all
//     shares back proportionally, as does the spare-capacity limit).
//
// It panics if xFaulty is outside [0, N-1] (LC_out is fault-free).
func (p Params) BFaulty(xFaulty int) float64 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if xFaulty < 0 || xFaulty >= p.N {
		panic(fmt.Sprintf("perf: X_faulty = %d outside [0, N-1=%d]", xFaulty, p.N-1))
	}
	if xFaulty == 0 {
		return p.Demand()
	}
	demand := p.Demand()
	spare := float64(p.N-xFaulty) * p.Psi()
	perFaulty := demand
	if s := spare / float64(xFaulty); s < perFaulty {
		perFaulty = s
	}
	if b := p.BusCapacity / float64(xFaulty); b < perFaulty {
		perFaulty = b
	}
	return perFaulty
}

// FractionOfDemand returns B_faulty normalized to the demand — the y-axis
// of Figure 8 (1.0 = the faulty LC keeps its full required capacity).
// With zero load there is nothing to degrade and the fraction is 1.
func (p Params) FractionOfDemand(xFaulty int) float64 {
	d := p.Demand()
	if d == 0 {
		return 1
	}
	return p.BFaulty(xFaulty) / d
}

// Curve evaluates FractionOfDemand for X_faulty = 1..N-1, the Figure 8
// series for one load value.
func (p Params) Curve() []float64 {
	out := make([]float64, p.N-1)
	for x := 1; x <= p.N-1; x++ {
		out[x-1] = p.FractionOfDemand(x)
	}
	return out
}

// SupportedFaultsAtFullService returns the largest X_faulty for which
// every faulty LC still receives 100% of its demand — the paper's claim
// that at L = 15% DRA fully supports up to N−1 faulty LCs.
func (p Params) SupportedFaultsAtFullService() int {
	for x := 1; x <= p.N-1; x++ {
		if p.FractionOfDemand(x) < 1-1e-12 {
			return x - 1
		}
	}
	return p.N - 1
}
