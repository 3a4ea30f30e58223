package montecarlo

import (
	"testing"

	"repro/internal/linecard"
	"repro/internal/metrics"
	"repro/internal/router"
)

// TestRaceSoakParallelEstimators drives every parallel path of the
// engine — the worker pool, the batch scheduler, biased replications,
// per-worker registries folded into the job registry at every batch
// boundary, and one job registry reused across three runs — with enough
// work to give the race detector something to chew on. It runs in short
// mode too (`make race` uses -short): the point is data-race coverage,
// not statistical power.
func TestRaceSoakParallelEstimators(t *testing.T) {
	reg := metrics.NewRegistry()

	rel := Options{
		Arch: linecard.DRA, N: 6, M: 3,
		Rates:   router.PaperRates(0),
		Horizon: 40000, Reps: 160, Seed: 3,
		Workers: 8, Metrics: reg,
		Biasing: router.Biasing{Enabled: true, Delta: 0.6},
	}
	if _, err := EstimateReliability(rel); err != nil {
		t.Fatal(err)
	}

	av := Options{
		Arch: linecard.BDR, N: 4, M: 4,
		Rates:   router.PaperRates(1.0 / 3),
		Horizon: 100000, Reps: 24, Seed: 4,
		Workers: 8, Metrics: reg,
	}
	if _, err := EstimateAvailability(av); err != nil {
		t.Fatal(err)
	}

	// Sequential stopping: several batches race through the pool while
	// the fold and stopping rule run on the driver goroutine.
	uav := Options{
		Arch: linecard.DRA, N: 4, M: 2,
		Rates: router.PaperRates(1.0 / 3),
		Reps:  400, Seed: 5,
		Workers: 8, Metrics: reg,
		Biasing:      router.Biasing{Enabled: true, Delta: 0.3},
		TargetRelErr: 0.4,
		Batch:        64,
		CyclesPerRep: 10,
	}
	if _, err := EstimateUnavailability(uav); err != nil {
		t.Fatal(err)
	}
}
