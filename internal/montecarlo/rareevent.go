package montecarlo

// Rare-event steady-state unavailability by regenerative simulation with
// importance sampling.
//
// The router's dependability process is a CTMC whose repair completions
// restore every failed unit at once, so each repair completion (and t = 0)
// is a regeneration point: the process restarts from the all-up state with
// fresh exponential lifetimes. Steady-state unavailability therefore has
// the regenerative ratio form
//
//	U = E[D] / E[τ]
//
// with D the target LC's downtime and τ the length of one cycle
// (all-up → first failure → repair completion). Under balanced failure
// biasing (router.Biasing) the cycle is simulated under a measure Q that
// makes multi-failure busy periods common, and each cycle carries its
// likelihood ratio W = dP/dQ from the injector, giving the unbiased
// weighted ratio estimator
//
//	Û = Σ W_c·D_c / Σ W_c·τ_c.
//
// Crucially the weight applies per cycle — one busy period, a handful of
// biased lifetime segments — so W stays bounded and the estimator's
// variance collapses precisely where crude Monte Carlo observes zero down
// cycles. This is the standard construction for dependability CTMCs
// (Goyal et al.; Shahabuddin's balanced failure biasing) and the engine
// behind experiment E5b.

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// UnavailabilityResult is the outcome of EstimateUnavailability.
type UnavailabilityResult struct {
	// Ratio accumulates the weighted per-cycle pairs (W·D, W·τ); its
	// estimate is the steady-state unavailability with the delta-method
	// CI of regenerative estimators.
	Ratio stats.Ratio
	// Weights tallies the per-cycle likelihood ratios (extremes, ESS).
	// For a crude run every weight is exactly 1.
	Weights stats.LogWeights
	// Cycles counts simulated regenerative cycles; DownCycles those in
	// which the target LC lost service at all — the estimator's signal.
	Cycles     uint64
	DownCycles uint64
	// Batches and StopReason report the scheduler outcome.
	Batches    int
	StopReason string
	// Failed lists replications that panicked (repro bundles; their
	// cycles are excluded from the estimator).
	Failed []FailedTrial
}

// Estimate returns the steady-state unavailability point estimate.
func (u UnavailabilityResult) Estimate() float64 { return u.Ratio.Estimate() }

// CI returns the delta-method 95% interval.
func (u UnavailabilityResult) CI() (lo, hi float64) { return u.Ratio.CI(1.96) }

// RelHalfWidth returns the relative 95% CI half-width.
func (u UnavailabilityResult) RelHalfWidth() float64 { return u.Ratio.RelHalfWidth(1.96) }

// cycleOut is one regenerative cycle's outcome. down is the conditional
// expected downtime rather than the sampled one: once the target LC goes
// down it stays down until the repair completes (failures only accumulate
// within a busy period and the repair restores everything at once), and
// the repair timer is exponential, so the remaining downtime at the
// moment of going down is Exp(μ) with conditional mean exactly 1/μ,
// independent of the trajectory so far. Substituting that mean
// (Rao-Blackwellisation) removes the downtime's sampling noise from the
// numerator — an exact, model-guaranteed variance reduction.
type cycleOut struct {
	logW     float64 // log likelihood ratio accumulated over the cycle
	down     float64 // conditional expected target-LC downtime (1{down}/μ)
	wentDown bool
	tau      float64 // cycle length
}

// foldCycle folds one regenerative cycle into the accumulators. Shared
// by EstimateUnavailability and the shard merge
// (MergeUnavailabilityShards) so a merged fleet-sharded estimate is
// bit-identical to a standalone run. The counters may come from a nil
// registry (they are nil-safe).
func (u *UnavailabilityResult) foldCycle(c cycleOut, cyclesCtr, downCtr *metrics.Counter) {
	w := math.Exp(c.logW)
	u.Ratio.Add(w*c.down, w*c.tau)
	u.Weights.Add(c.logW)
	u.Cycles++
	cyclesCtr.Inc()
	if c.wentDown {
		u.DownCycles++
		downCtr.Inc()
	}
}

// cyclesPerRep resolves Options.CyclesPerRep.
func (o Options) cyclesPerRep() int {
	if o.CyclesPerRep == 0 {
		return DefaultCyclesPerRep
	}
	return o.CyclesPerRep
}

// EstimateUnavailability estimates the target LC's steady-state
// unavailability by regenerative simulation. Each replication reuses one
// router for Options.CyclesPerRep repair cycles (construction is
// amortised); Options.Reps replications bound the budget, and
// Options.TargetRelErr runs batches until the ratio estimate's relative
// CI half-width reaches the target. With Options.Biasing the busy periods
// are importance-sampled and de-biased per cycle; without it the
// estimator degrades gracefully to crude regenerative simulation (useful
// exactly to demonstrate why biasing is needed: in the paper's 9^7–9^8
// band a crude run of the same budget observes zero down cycles).
//
// Options.Horizon is ignored — the replication unit is the repair cycle.
func EstimateUnavailability(opt Options) (UnavailabilityResult, error) {
	if opt.Horizon == 0 {
		opt.Horizon = 1 // unused; satisfy shared validation
	}
	if err := opt.Validate(); err != nil {
		return UnavailabilityResult{}, err
	}
	if opt.Rates.Repair <= 0 {
		return UnavailabilityResult{}, fmt.Errorf("montecarlo: regenerative unavailability needs repair (cycles end at repair completions)")
	}
	res := UnavailabilityResult{}
	if cp := opt.Resume; cp != nil {
		if cp.Ratio != nil {
			res.Ratio.Restore(*cp.Ratio)
		}
		if cp.Weights != nil {
			res.Weights.Restore(*cp.Weights)
		}
		res.Cycles, res.DownCycles = cp.Cycles, cp.DownCycles
	}
	cyclesCtr := opt.Metrics.Counter("montecarlo_cycles_total", "Regenerative repair cycles simulated.")
	downCtr := opt.Metrics.Counter("montecarlo_down_cycles_total", "Cycles in which the target LC lost service.")
	fold := func(cs []cycleOut) {
		for _, c := range cs {
			res.foldCycle(c, cyclesCtr, downCtr)
		}
	}
	snap := func() Checkpoint {
		ra, w := res.Ratio.State(), res.Weights.State()
		return Checkpoint{Ratio: &ra, Weights: &w, Cycles: res.Cycles, DownCycles: res.DownCycles}
	}
	batches, reason, failed, err := drive(opt, ModeUnavailability, unavailabilityRep, fold,
		func() float64 { return res.Ratio.RelHalfWidth(1.96) }, snap)
	if err != nil {
		return res, err
	}
	res.Batches, res.StopReason, res.Failed = batches, reason, failed
	lo, hi := res.CI()
	publishCI(opt, lo, hi)
	publishWeights(opt, &res.Weights)
	return res, nil
}

// unavailabilityRep simulates CyclesPerRep regenerative cycles on one
// router and returns their outcomes in cycle order.
func unavailabilityRep(opt Options, rep uint64, src *xrand.Source) ([]cycleOut, error) {
	r, inj, err := build(opt, rep, src)
	if err != nil {
		return nil, err
	}
	inj.Start()
	k := r.Kernel()
	want := opt.cyclesPerRep()
	out := make([]cycleOut, 0, want)

	prevLR := 0.0
	cycleStart := k.Now()
	wentDown := false
	repairs := inj.Repairs
	for len(out) < want {
		if !k.Step() {
			// No events pending: cannot happen with Repair > 0, but do
			// not spin if it somehow does.
			break
		}
		now := k.Now()
		if !wentDown && !r.CanDeliverCached(opt.TargetLC) {
			// Once down, the LC stays down until the repair: only the
			// fact of going down matters (see cycleOut).
			wentDown = true
		}
		if inj.Repairs != repairs {
			// A repair completion: regeneration point, the cycle closes.
			repairs = inj.Repairs
			lr := inj.CheckpointLR()
			c := cycleOut{
				logW:     lr - prevLR,
				wentDown: wentDown,
				tau:      float64(now - cycleStart),
			}
			if wentDown {
				c.down = 1 / opt.Rates.Repair
			}
			out = append(out, c)
			prevLR = lr
			cycleStart = now
			wentDown = false
		}
	}
	return out, nil
}
