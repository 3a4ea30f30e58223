package router

import (
	"math"
	"testing"

	"repro/internal/linecard"
	"repro/internal/sim"
)

func TestPaperRates(t *testing.T) {
	fr := PaperRates(1.0 / 3)
	if math.Abs(fr.LambdaLC()-2e-5) > 1e-18 {
		t.Fatalf("λ_LC = %g, want 2e-5", fr.LambdaLC())
	}
	if math.Abs(fr.LambdaLPI()-1.4e-5) > 1e-18 {
		t.Fatalf("λ_LPI = %g, want 1.4e-5", fr.LambdaLPI())
	}
	if fr.PDLU != 6e-6 || fr.BC != 1e-6 || fr.Bus != 1e-6 {
		t.Fatalf("rates = %+v", fr)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultRatesValidate(t *testing.T) {
	bad := FaultRates{PDLU: -1}
	if bad.Validate() == nil {
		t.Fatal("negative rate accepted")
	}
	nan := FaultRates{SRU: math.NaN()}
	if nan.Validate() == nil {
		t.Fatal("NaN rate accepted")
	}
}

func TestInjectorProducesFaultsAtExpectedRate(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	rates := PaperRates(0) // no repair: each component fails at most once
	inj, err := NewInjector(r, rates)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	r.Kernel().Run(100000) // drain every lifetime; no repair → finite
	// Without repair every armed component fails exactly once:
	// 6 LCs × (PDLU+SRU+LFE+BC) + the bus = 25 failures.
	if inj.Faults != 25 {
		t.Fatalf("faults = %d, want 25", inj.Faults)
	}
	if inj.Repairs != 0 {
		t.Fatalf("repairs = %d", inj.Repairs)
	}
}

func TestInjectorTimeToFirstLCFaultMatchesExponential(t *testing.T) {
	// Mean time to first failure of a specific LC's units is
	// 1/λ_LC (+BC). Estimate over replications.
	const reps = 400
	sum := 0.0
	for rep := 0; rep < reps; rep++ {
		cfg := UniformConfig(linecard.DRA, 4, 2)
		cfg.Seed = uint64(rep + 1)
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.InstallUniformRoutes()
		rates := FaultRates{PDLU: 6e-6, SRU: 8e-6, LFE: 6e-6} // LC units only
		inj, err := NewInjector(r, rates)
		if err != nil {
			t.Fatal(err)
		}
		inj.Start()
		k := r.Kernel()
		for r.LC(0).FullyHealthy() && k.Step() {
		}
		sum += float64(k.Now())
	}
	mean := sum / reps
	want := 1 / 2e-5 // 50 000 h
	if math.Abs(mean-want)/want > 0.15 {
		t.Fatalf("mean time to LC0 fault = %g, want ~%g", mean, want)
	}
}

func TestInjectorRepairRestoresRouter(t *testing.T) {
	r := newDRARouter(t, 4, 2)
	inj, err := NewInjector(r, PaperRates(1.0/3))
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	r.Kernel().RunUntil(3e6)
	if inj.Faults == 0 || inj.Repairs == 0 {
		t.Fatalf("faults=%d repairs=%d", inj.Faults, inj.Repairs)
	}
	// With μ = 1/3 h, the router is almost surely fully repaired at any
	// sampled instant a long time after the last event; drive repairs to
	// completion by advancing until no failures remain.
	for i := 0; i < 1000; i++ {
		all := true
		for j := 0; j < r.NumLCs(); j++ {
			if !r.LC(j).FullyHealthy() {
				all = false
			}
		}
		if all && !r.Bus().Failed() {
			break
		}
		if !r.Kernel().Step() {
			break
		}
	}
	for j := 0; j < r.NumLCs(); j++ {
		if !r.CanDeliver(j) {
			t.Fatalf("LC %d not delivering after repairs", j)
		}
	}
}

func TestInjectorAvailabilityOrderOfMagnitude(t *testing.T) {
	// With the paper's rates and μ = 1/3, a DRA LC's unavailability is
	// tiny; just assert the simulated availability of LC 0 exceeds the
	// BDR analytical availability (0.99994) — the headline claim.
	r := newDRARouter(t, 6, 3)
	inj, err := NewInjector(r, PaperRates(1.0/3))
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	k := r.Kernel()
	tracker := sim.NewUpDownTracker(k)
	// Sample CanDeliver(0) after every event.
	const horizon = 2e6
	for k.Now() < horizon {
		if !k.Step() {
			break
		}
		tracker.SetUp(r.CanDeliver(0))
	}
	a := tracker.Availability()
	if a < 0.99994 {
		t.Fatalf("simulated DRA availability %v not above BDR analytic 0.99994", a)
	}
}

// LambdaLPI returns the combined PI-unit rate λ_LPI = λ_SRU + λ_LFE.
func (f FaultRates) LambdaLPI() float64 { return f.SRU + f.LFE }

// LambdaLC returns the whole-LC rate λ_LC = λ_LPD + λ_LPI.
func (f FaultRates) LambdaLC() float64 { return f.PDLU + f.SRU + f.LFE }

// LogLR returns the accumulated log likelihood ratio of the trajectory so
// far, excluding the still-open exposure segments (see CheckpointLR). It
// is exactly 0 when biasing is off.
func (inj *Injector) LogLR() float64 { return inj.logLR }
