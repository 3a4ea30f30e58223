package router

import (
	"repro/internal/linecard"
)

// BandwidthReport is the outcome of the fluid coverage-bandwidth
// computation for one configuration of failures and loads — the simulated
// counterpart of the paper's Section 5.3 analysis.
type BandwidthReport struct {
	// PerFaulty maps each faulty LC to the bandwidth it receives over the
	// EIB (bits per time unit).
	PerFaulty map[int]float64
	// Demand is the per-LC demand L·c_LC.
	Demand float64
	// SpareTotal is Σψ over healthy covering LCs.
	SpareTotal float64
	// BusCap is B_BUS.
	BusCap float64
}

// FractionOfDemand returns B_faulty normalized to the demand for LC i, the
// y-axis of Figure 8.
func (b BandwidthReport) FractionOfDemand(i int) float64 {
	if b.Demand == 0 {
		return 1
	}
	return b.PerFaulty[i] / b.Demand
}

// CoverageBandwidth computes, under the current fault state, the bandwidth
// each faulty-but-covered LC receives, mirroring the EIB mechanism:
//
//  1. every faulty LC asks for its offered load (L·c_LC);
//  2. healthy LCs offer ψ = c_LC − L·c_LC each, pooled;
//  3. the EIB promise formula scales everyone back proportionally when
//     the total ask exceeds B_BUS;
//  4. the spare-capacity pool caps the total coverage similarly.
//
// The LC with index len-1 plays LC_out and is excluded from covering, per
// the paper's assumption that LC_out is fault-free and not part of the
// covering pool accounting (X_nonfaulty + X_faulty = N with LC_out
// excluded from failures).
func (r *Router) CoverageBandwidth() BandwidthReport {
	rep := BandwidthReport{PerFaulty: make(map[int]float64)}
	if r.bus != nil {
		rep.BusCap = r.bus.Config().DataCapacity
	}
	var faulty []int
	for i, lc := range r.lcs {
		if !lc.FullyHealthy() {
			faulty = append(faulty, i)
		} else {
			rep.SpareTotal += lc.Capacity() - r.offered[i]
		}
	}
	if len(faulty) == 0 {
		return rep
	}
	if r.cfg.Arch != linecard.DRA || r.bus == nil || r.bus.Failed() {
		for _, i := range faulty {
			rep.PerFaulty[i] = 0
		}
		return rep
	}
	// Uniform loads in this model: use LC 0's offered load as L·c.
	rep.Demand = r.offered[faulty[0]]
	totalAsk := 0.0
	for _, i := range faulty {
		totalAsk += r.offered[i]
	}
	// EIB promise scale-back.
	scale := 1.0
	if totalAsk > rep.BusCap && totalAsk > 0 {
		scale = rep.BusCap / totalAsk
	}
	// Spare-pool scale-back.
	if totalAsk*scale > rep.SpareTotal && totalAsk > 0 {
		scale = rep.SpareTotal / totalAsk
	}
	for _, i := range faulty {
		got := r.offered[i] * scale
		if got > r.offered[i] {
			got = r.offered[i]
		}
		rep.PerFaulty[i] = got
	}
	return rep
}

// FailWholeLC marks every unit of LC i failed except the PIU (the paper's
// §5.3 treats a faulty LC as a single unit whose traffic the EIB
// carries). The PIU stays up so the external link still terminates.
func (r *Router) FailWholeLC(i int) {
	for _, c := range []linecard.Component{linecard.PDLU, linecard.SRU, linecard.LFE} {
		if r.lcs[i].Arch() == linecard.BDR && c == linecard.PDLU {
			continue
		}
		if !r.lcs[i].Failed(c) {
			r.lcs[i].Fail(c)
		}
	}
	r.reconcileCoverage()
}
