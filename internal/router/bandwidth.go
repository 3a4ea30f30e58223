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
	scale, spare, busCap, served := r.coverageScale()
	rep := BandwidthReport{PerFaulty: make(map[int]float64), SpareTotal: spare, BusCap: busCap}
	for i, lc := range r.lcs {
		if lc.FullyHealthy() {
			continue
		}
		if served && len(rep.PerFaulty) == 0 {
			// Uniform loads in this model: use the first faulty LC's
			// offered load as L·c.
			rep.Demand = r.offered[i]
		}
		rep.PerFaulty[i] = r.coveredBandwidth(i, scale)
	}
	return rep
}

// coverageScale runs steps 1–4 of CoverageBandwidth without allocating.
// It returns the factor by which every faulty LC's ask is scaled back,
// the healthy LCs' spare pool Σψ and B_BUS. served is false when the EIB
// carries no coverage (no faulty LC, BDR, no bus or a failed one); scale
// is then 0.
func (r *Router) coverageScale() (scale, spare, busCap float64, served bool) {
	if r.bus != nil {
		busCap = r.bus.Config().DataCapacity
	}
	faulty := false
	totalAsk := 0.0
	for i, lc := range r.lcs {
		if !lc.FullyHealthy() {
			faulty = true
			totalAsk += r.offered[i]
		} else {
			spare += lc.Capacity() - r.offered[i]
		}
	}
	if !faulty || r.cfg.Arch != linecard.DRA || r.bus == nil || r.bus.Failed() {
		return 0, spare, busCap, false
	}
	// EIB promise scale-back.
	scale = 1.0
	if totalAsk > busCap && totalAsk > 0 {
		scale = busCap / totalAsk
	}
	// Spare-pool scale-back.
	if totalAsk*scale > spare && totalAsk > 0 {
		scale = spare / totalAsk
	}
	return scale, spare, busCap, true
}

// coveredBandwidth is the bandwidth faulty LC i receives at the given
// scale-back: its ask scaled, never more than the ask.
func (r *Router) coveredBandwidth(i int, scale float64) float64 {
	got := r.offered[i] * scale
	if got > r.offered[i] {
		got = r.offered[i]
	}
	return got
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
