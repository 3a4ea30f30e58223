package router

import (
	"math"
	"testing"

	"repro/internal/linecard"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// TestCoverageGaugeMatchesReport walks DRA(9,4) through random fault
// states — component faults and repairs under random loads, with the
// EIB cut now and then — and checks after every transition that
// router_coverage_bandwidth equals the sum of
// CoverageBandwidth().PerFaulty, and that refreshing the gauge
// allocates nothing.
func TestCoverageGaugeMatchesReport(t *testing.T) {
	comps := []linecard.Component{linecard.PDLU, linecard.SRU, linecard.LFE, linecard.BusController}
	for name, spec := range map[string]topology.Spec{"bus": {}, "mesh": {Kind: "mesh"}} {
		t.Run(name, func(t *testing.T) {
			r := newTopoRouter(t, spec, 9, 4, 5)
			reg := metrics.NewRegistry()
			r.SetMetrics(reg)
			gauge := reg.Gauge("router_coverage_bandwidth", "")
			rng := xrand.New(11)
			for i := 0; i < r.NumLCs(); i++ {
				r.SetOfferedLoad(i, (0.1+0.8*rng.Float64())*r.LC(i).Capacity())
			}
			served := 0
			for step := 0; step < 400; step++ {
				switch i := rng.Intn(r.NumLCs() + 1); {
				case i == r.NumLCs():
					if r.Bus().Failed() {
						r.RepairBus()
					} else {
						r.FailBus()
					}
				default:
					c := comps[rng.Intn(len(comps))]
					if r.LC(i).Failed(c) {
						r.RepairComponent(i, c)
					} else {
						r.FailComponent(i, c)
					}
				}
				settle(r)
				want := 0.0
				for _, bw := range r.CoverageBandwidth().PerFaulty {
					want += bw
				}
				if want > 0 {
					served++
				}
				if got := gauge.Value(); math.Abs(got-want) > 1e-12*math.Abs(want) {
					t.Fatalf("step %d: gauge %.17g, report sums to %.17g", step, got, want)
				}
			}
			if served == 0 {
				t.Fatal("no fault state had covered bandwidth; the walk tests nothing")
			}
			skipUnderRace(t)
			if n := testing.AllocsPerRun(100, r.updateCoverageGauge); n != 0 {
				t.Fatalf("updateCoverageGauge allocates %v per call, want 0", n)
			}
		})
	}
}
