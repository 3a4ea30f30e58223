// Package montecarlo estimates the dependability of the executable router
// model by replicated fault-injection simulation, providing an independent
// cross-check of the analytical Markov models: the simulator knows nothing
// of the chains — it injects per-component exponential lifetimes into the
// full router and watches the service predicate — so agreement between the
// two is evidence that both encode the architecture the same way.
//
// Two estimation regimes coexist:
//
//   - Crude Monte Carlo (EstimateReliability, EstimateAvailability):
//     replications under the true failure dynamics. Adequate wherever the
//     event of interest is common enough to be observed.
//   - Rare-event importance sampling (Options.Biasing, plus the
//     regenerative EstimateUnavailability in rareevent.go): replications
//     under balanced failure biasing, de-biased by the injector's
//     likelihood ratio. This is how the 9^7–9^8 nines band of the paper's
//     Fig. 7 becomes measurable — crude MC observes zero failures there
//     at any feasible budget.
//
// Both regimes share one batch scheduler: replications are dispatched in
// batches over the worker pool, each replication on its own xrand Jump
// stream split sequentially from the master seed, and results are folded
// in replication order — so every estimate is bit-identical for any
// Workers value, and sequential stopping (Options.TargetRelErr) composes
// with parallelism.
package montecarlo

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linecard"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// DefaultBatch is the batch size used by sequential stopping when
// Options.Batch is zero: large enough to amortise the stopping-rule check,
// small enough to not overshoot the target badly.
const DefaultBatch = 1024

// DefaultCyclesPerRep is the number of regenerative cycles one
// replication's router is reused for in EstimateUnavailability.
const DefaultCyclesPerRep = 100

// Options configures an estimation run.
type Options struct {
	Arch linecard.Arch
	// N is the LC count; M the number of LCs sharing LC 0's protocol.
	N, M int
	// Rates are the component failure rates (and repair rate for
	// availability runs).
	Rates router.FaultRates
	// Topology selects each replication router's interconnect graph; the
	// zero value is the paper's bus. The same estimators, biasing, and
	// checkpoints run unchanged on every kind.
	Topology topology.Spec
	// Horizon is the simulated time per replication (hours). Ignored by
	// the regenerative EstimateUnavailability, whose replication unit is
	// the repair cycle.
	Horizon float64
	// Reps is the number of independent replications. With TargetRelErr
	// set it becomes the replication budget cap instead of a fixed count.
	Reps int
	// Seed makes the whole estimate reproducible: a master generator is
	// seeded with it and every replication receives its own
	// non-overlapping stream via sequential Jump splits, in replication
	// order.
	Seed uint64
	// Workers fans replications out over goroutines (each replication
	// owns a private router, and each of several workers a private
	// registry, so they share nothing). 0 or 1 runs sequentially. Streams are split
	// and results aggregated in replication order, so the estimate is
	// bit-identical regardless of worker count.
	Workers int
	// TargetLC selects the linecard under analysis (the paper's LCUA);
	// default 0.
	TargetLC int
	// Biasing enables balanced failure biasing in every replication's
	// fault injector (see router.Biasing). Estimates are de-biased by the
	// accumulated likelihood ratios and stay unbiased; variance collapses
	// for rare failure events. EstimateAvailability rejects it — use
	// EstimateUnavailability, whose regenerative cycles keep the weights
	// bounded.
	Biasing router.Biasing
	// TargetRelErr, when positive, switches to sequential stopping: the
	// engine runs batches of replications until the 95% relative CI
	// half-width of the rare quantity (the failure probability, or the
	// unavailability) drops to this target, or the Reps budget runs out.
	TargetRelErr float64
	// Batch is the sequential-stopping batch size; 0 selects DefaultBatch.
	// It is also the granularity of checkpoints (OnBatch) and of
	// interruption (Ctx/Watchdog): an explicit Batch carves even a
	// fixed-count run into that many replications per batch.
	Batch int
	// CyclesPerRep is how many regenerative cycles EstimateUnavailability
	// simulates per replication (router construction is amortised across
	// them); 0 selects DefaultCyclesPerRep.
	CyclesPerRep int
	// Metrics, when non-nil, receives live progress. A sequential run
	// instruments every replication's router and kernel against it
	// directly. With several workers each instruments the routers and
	// kernels it builds against a registry of its own, and the batch
	// scheduler folds those into Metrics after every batch
	// (metrics.Registry.Fold), so the router_*, sim_* and eib_*
	// families move once per batch and no replication writes a
	// registry another goroutine writes. The estimators publish
	// montecarlo_trials_total, montecarlo_batches_total,
	// montecarlo_ci_halfwidth, montecarlo_relative_error, the
	// montecarlo_logweight_max/min extremes and montecarlo_stops_total
	// for convergence watching over /metrics. Nil builds no registry at
	// all.
	Metrics *metrics.Registry
	// Ctx, when non-nil, is checked at every batch boundary: once it is
	// cancelled the run stops with StopInterrupted and returns the
	// partial estimate folded so far (plus, via OnBatch, a checkpoint to
	// resume from). Replications already dispatched finish their batch —
	// interruption never lands mid-fold, which is what makes resumed
	// runs bit-identical.
	Ctx context.Context
	// Watchdog, when positive, bounds the run's wall-clock time: a batch
	// boundary past the deadline stops the run with StopInterrupted,
	// exactly like a cancelled Ctx. It guards unattended campaign and CI
	// runs against a pathological configuration spinning forever.
	Watchdog time.Duration
	// OnBuild, when non-nil, is called with every replication's freshly
	// constructed router before injection starts — the hook for fault
	// campaigns and tests to pre-damage or instrument per-replication
	// state. It runs inside the replication's panic capture: a panic
	// here is recorded as a failed trial, not a crashed run.
	OnBuild func(rep uint64, r *router.Router)
	// OnBatch, when non-nil, receives an exact resumable Checkpoint
	// after every folded batch. Persist it (Checkpoint.WriteFile is
	// atomic) and a killed run resumes via Resume with no lost work
	// beyond the batch in flight.
	OnBatch func(Checkpoint)
	// Resume, when non-nil, restores a prior run's accumulators and
	// skips its RepsDone replication streams, continuing at the next
	// batch boundary. The checkpoint's Mode and Seed must match the run;
	// the resumed estimate is bit-identical to an uninterrupted run of
	// the same total budget.
	Resume *Checkpoint
}

// Validate rejects nonsensical options.
func (o Options) Validate() error {
	if o.N < 2 || o.M < 1 || o.M > o.N {
		return fmt.Errorf("montecarlo: bad N=%d M=%d", o.N, o.M)
	}
	if o.Horizon <= 0 {
		return fmt.Errorf("montecarlo: horizon must be positive")
	}
	if o.Reps < 1 {
		return fmt.Errorf("montecarlo: need at least one replication")
	}
	if o.TargetLC < 0 || o.TargetLC >= o.N {
		return fmt.Errorf("montecarlo: target LC %d outside [0, N)", o.TargetLC)
	}
	if o.TargetRelErr < 0 || o.TargetRelErr >= 1 {
		return fmt.Errorf("montecarlo: target relative error %g outside [0, 1)", o.TargetRelErr)
	}
	if o.Batch < 0 {
		return fmt.Errorf("montecarlo: negative batch size")
	}
	if o.CyclesPerRep < 0 {
		return fmt.Errorf("montecarlo: negative cycles per replication")
	}
	if err := o.Topology.Validate(o.N); err != nil {
		return fmt.Errorf("montecarlo: topology %w", err)
	}
	if err := o.Biasing.Validate(); err != nil {
		return err
	}
	return o.Rates.Validate()
}

// batchSize resolves the sequential-stopping increment.
func (o Options) batchSize() int {
	b := o.Batch
	if b == 0 {
		b = DefaultBatch
	}
	if b > o.Reps {
		b = o.Reps
	}
	return b
}

// Stop reasons reported by the batch scheduler.
const (
	// StopTarget: the relative CI half-width reached TargetRelErr.
	StopTarget = "target"
	// StopBudget: the Reps budget ran out before the target was reached.
	StopBudget = "budget"
	// StopFixed: no TargetRelErr was set; the fixed Reps count ran.
	StopFixed = "fixed"
	// StopInterrupted: Options.Ctx was cancelled or the Watchdog
	// deadline passed; the result is the partial estimate at the last
	// completed batch.
	StopInterrupted = "interrupted"
)

// splitN carves n sequential non-overlapping streams off the master
// generator. Allocation order is replication order — the cornerstone of
// worker-count independence.
func splitN(master *xrand.Source, n int) []*xrand.Source {
	out := make([]*xrand.Source, n)
	for i := range out {
		out[i] = master.Split()
	}
	return out
}

// trialResult is one replication's outcome inside a batch: either a
// value to fold or a captured panic (the batch survives the latter).
type trialResult[T any] struct {
	v      T
	failed *FailedTrial
}

// runBatch executes one replication function per pre-split stream,
// optionally across workers, and hands each outcome to fold in
// replication order. rep numbering starts at base; fold gets the index
// within the batch. A replication that panics is recorded as a failed
// trial — the rest of the batch runs to completion; only returned
// errors (misconfiguration) abort the run.
//
// Whichever worker completes the next replication in order folds it,
// and every later one already done, under one lock: a batch holds only
// the outcomes that finished ahead of a slower, earlier replication,
// never the whole batch. With Options.Metrics set and more than one
// worker, each worker's replications see Options whose Metrics is that
// worker's own fresh registry; once every worker is done, runBatch
// folds them into Options.Metrics on the calling goroutine. A
// sequential batch has no other writer to keep apart from, so its
// replications write Options.Metrics itself.
func runBatch[T any](opt Options, base uint64, streams []*xrand.Source,
	one func(Options, uint64, *xrand.Source) (T, error),
	fold func(i int, tr trialResult[T])) error {
	trials := opt.Metrics.Counter("montecarlo_trials_total", "Completed Monte-Carlo replications.")
	failedCtr := opt.Metrics.Counter("montecarlo_failed_trials_total", "Replications that panicked and were recorded as failed trials.")
	n := len(streams)
	errs := make([]error, n)
	var (
		foldMu sync.Mutex
		ready  = make([]*trialResult[T], n) // done, not yet folded
		folded int
	)
	// Workers claim replications in index order.
	var next atomic.Int64
	work := func(wopt Options) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			v, ft, err := runOne(wopt, base+uint64(i), streams[i], one)
			if err != nil {
				errs[i] = err
				next.Store(int64(n)) // misconfiguration: claim nothing more
				continue
			}
			if ft != nil {
				failedCtr.Inc()
			} else {
				trials.Inc()
			}
			foldMu.Lock()
			ready[i] = &trialResult[T]{v: v, failed: ft}
			for ; folded < n && ready[folded] != nil; folded++ {
				fold(folded, *ready[folded])
				ready[folded] = nil
			}
			foldMu.Unlock()
		}
	}
	wopts := make([]Options, max(min(opt.Workers, n), 1))
	for w := range wopts {
		wopts[w] = opt
		if opt.Metrics != nil && len(wopts) > 1 {
			wopts[w].Metrics = metrics.NewRegistry()
		}
	}
	if len(wopts) == 1 {
		work(wopts[0])
	} else {
		var wg sync.WaitGroup
		for _, wopt := range wopts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(wopt)
			}()
		}
		wg.Wait()
	}
	for _, w := range wopts {
		opt.Metrics.Fold(w.Metrics)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drive is the sequential-stopping batch scheduler shared by every
// estimator: it splits streams, runs batches through runBatch, folds each
// batch in replication order via fold, and keeps going until relErr()
// reaches the target, the Reps budget is exhausted, or the run is
// interrupted (Ctx/Watchdog). It returns the number of batches run, the
// stop reason and the failed trials recorded along the way.
//
// snap captures the estimator's accumulator state; drive stamps the
// scheduler fields onto it for Options.OnBatch checkpoints. With
// Options.Resume set, drive verifies the checkpoint matches, advances
// the master generator past the already-consumed streams and continues
// at the next batch boundary.
func drive[T any](opt Options, mode string,
	one func(Options, uint64, *xrand.Source) (T, error),
	fold func(T),
	relErr func() float64,
	snap func() Checkpoint) (batches int, stopReason string, failed []FailedTrial, err error) {

	master := xrand.New(opt.Seed)
	batchesCtr := opt.Metrics.Counter("montecarlo_batches_total", "Batches dispatched by the sequential-stopping scheduler.")
	relGauge := opt.Metrics.Gauge("montecarlo_relative_error", "Relative 95% CI half-width of the rare-quantity estimate.")
	stops := opt.Metrics.CounterVec("montecarlo_stops_total", "Estimation runs finished, by stop reason.", "reason")

	done := 0
	if cp := opt.Resume; cp != nil {
		if cp.Mode != mode {
			return 0, "", nil, fmt.Errorf("montecarlo: resume checkpoint is a %s run, this is %s", cp.Mode, mode)
		}
		if cp.Seed != opt.Seed {
			return 0, "", nil, fmt.Errorf("montecarlo: resume checkpoint seed %d does not match option seed %d", cp.Seed, opt.Seed)
		}
		done = int(cp.RepsDone)
		batches = cp.Batches
		failed = append(failed, cp.Failed...)
		// Streams are split sequentially in replication order, so the
		// master state after RepsDone replications is RepsDone jumps in.
		for i := 0; i < done; i++ {
			master.Jump()
		}
	}

	batch := opt.Reps
	if opt.TargetRelErr > 0 || opt.Batch > 0 {
		// An explicit Batch also sets the checkpoint/interrupt
		// granularity of fixed-count runs.
		batch = opt.batchSize()
	}
	stopReason = StopFixed
	if opt.Resume != nil && opt.TargetRelErr > 0 && done > 0 && relErr() <= opt.TargetRelErr {
		// The uninterrupted run would already have stopped at this batch
		// boundary; resuming must not overshoot it.
		stopReason = StopTarget
		stops.With(stopReason).Inc()
		return batches, stopReason, failed, nil
	}
	var deadline time.Time
	if opt.Watchdog > 0 {
		deadline = time.Now().Add(opt.Watchdog)
	}
	for done < opt.Reps {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			stopReason = StopInterrupted
			break
		}
		if opt.Watchdog > 0 && time.Now().After(deadline) {
			stopReason = StopInterrupted
			break
		}
		n := batch
		if rest := opt.Reps - done; n > rest {
			n = rest
		}
		streams := splitN(master, n)
		err := runBatch(opt, uint64(done), streams, one, func(_ int, tr trialResult[T]) {
			if tr.failed != nil {
				failed = append(failed, *tr.failed)
				return
			}
			fold(tr.v)
		})
		if err != nil {
			return batches, "", failed, err
		}
		done += n
		batches++
		batchesCtr.Inc()
		if opt.OnBatch != nil {
			cp := snap()
			cp.Mode = mode
			cp.Seed = opt.Seed
			cp.RepsDone = uint64(done)
			cp.Batches = batches
			cp.Failed = append([]FailedTrial(nil), failed...)
			opt.OnBatch(cp)
		}
		re := relErr()
		relGauge.Set(re)
		if opt.TargetRelErr > 0 {
			if re <= opt.TargetRelErr {
				stopReason = StopTarget
				break
			}
			stopReason = StopBudget
		}
	}
	stops.With(stopReason).Inc()
	return batches, stopReason, failed, nil
}

// ReliabilityResult is the outcome of EstimateReliability.
type ReliabilityResult struct {
	Horizon float64
	// Biased records whether the run used failure biasing; it selects
	// which accumulator backs Estimate and CI.
	Biased bool
	// Survival estimates R(Horizon) for the target LC: the fraction of
	// replications in which its packet service never failed. Meaningful
	// only for unbiased runs (under biasing the raw fraction estimates
	// the *biased* dynamics).
	Survival stats.Proportion
	// Failure accumulates the per-replication unbiased failure estimate
	// W·1{failed by Horizon} (W ≡ 1 without biasing). Its mean estimates
	// F(Horizon) = 1 − R(Horizon) under both regimes and drives the
	// sequential stopping rule.
	Failure stats.Welford
	// Weights tallies the likelihood ratios of a biased run (weight
	// extremes, effective sample size). Empty for unbiased runs.
	Weights stats.LogWeights
	// TTF accumulates observed times to first service failure (only for
	// replications that failed within the horizon, only unbiased runs —
	// biased failure times follow the biased dynamics).
	TTF stats.Welford
	// TTFSamples holds the raw failure times, in replication order, for
	// histograms and quantiles. Unbiased runs only.
	TTFSamples []float64
	// Batches and StopReason report the scheduler outcome.
	Batches    int
	StopReason string
	// Failed lists replications that panicked; each entry is a repro
	// bundle (ReplayReliabilityTrial reproduces the panic). Failed
	// trials are excluded from every accumulator above.
	Failed []FailedTrial
}

// Estimate returns the reliability point estimate.
func (r ReliabilityResult) Estimate() float64 {
	if r.Biased {
		return 1 - r.Failure.Mean()
	}
	return r.Survival.Estimate()
}

// CI returns the 95% interval for the reliability: Wilson for crude runs,
// the normal interval of the weighted failure estimator for biased ones.
func (r ReliabilityResult) CI() (lo, hi float64) {
	if r.Biased {
		flo, fhi := r.Failure.CI(1.96)
		return 1 - fhi, 1 - flo
	}
	return r.Survival.Wilson(1.96)
}

// relOut is one reliability replication's outcome.
type relOut struct {
	failedAt float64 // -1 when the service survived the horizon
	logW     float64 // accumulated log likelihood ratio (0 unbiased)
}

// foldOutcome folds one replication's outcome into the accumulators. It
// is the single fold path shared by EstimateReliability and the shard
// merge (MergeReliabilityShards): folding the same outcomes in the same
// replication order through this method is what makes a merged
// fleet-sharded estimate bit-identical to a standalone run.
func (r *ReliabilityResult) foldOutcome(horizon float64, o relOut) {
	failed := o.failedAt >= 0 && o.failedAt <= horizon
	if r.Biased {
		w := 0.0
		if failed {
			w = math.Exp(o.logW)
		}
		r.Failure.Add(w)
		r.Weights.Add(o.logW)
		return
	}
	r.Survival.Add(!failed)
	if failed {
		r.Failure.Add(1)
		r.TTF.Add(o.failedAt)
		r.TTFSamples = append(r.TTFSamples, o.failedAt)
	} else {
		r.Failure.Add(0)
	}
}

// EstimateReliability runs replications without repair and reports the
// fraction in which the target LC's service survived the horizon. With
// Options.Biasing the failure probability is estimated by the unbiased
// likelihood-ratio estimator instead of the raw fraction; with
// Options.TargetRelErr replications run in batches until the failure
// estimate's relative CI half-width reaches the target.
func EstimateReliability(opt Options) (ReliabilityResult, error) {
	if err := opt.Validate(); err != nil {
		return ReliabilityResult{}, err
	}
	if opt.Rates.Repair != 0 {
		return ReliabilityResult{}, fmt.Errorf("montecarlo: reliability runs must not repair")
	}
	res := ReliabilityResult{Horizon: opt.Horizon, Biased: opt.Biasing.Enabled}
	if cp := opt.Resume; cp != nil {
		if cp.Survival != nil {
			res.Survival = *cp.Survival
		}
		if cp.Failure != nil {
			res.Failure.Restore(*cp.Failure)
		}
		if cp.TTF != nil {
			res.TTF.Restore(*cp.TTF)
		}
		if cp.Weights != nil {
			res.Weights.Restore(*cp.Weights)
		}
		res.TTFSamples = append(res.TTFSamples, cp.TTFSamples...)
	}
	fold := func(o relOut) { res.foldOutcome(opt.Horizon, o) }
	snap := func() Checkpoint {
		sv, f, ttf, w := res.Survival, res.Failure.State(), res.TTF.State(), res.Weights.State()
		return Checkpoint{
			Survival:   &sv,
			Failure:    &f,
			TTF:        &ttf,
			Weights:    &w,
			TTFSamples: append([]float64(nil), res.TTFSamples...),
		}
	}
	batches, reason, failed, err := drive(opt, ModeReliability, reliabilityRep, fold,
		func() float64 { return res.Failure.RelHalfWidth(1.96) }, snap)
	if err != nil {
		return res, err
	}
	res.Batches, res.StopReason, res.Failed = batches, reason, failed
	lo, hi := res.CI()
	publishCI(opt, lo, hi)
	if res.Biased {
		publishWeights(opt, &res.Weights)
	}
	return res, nil
}

// publishCI records the 95% confidence-interval half-width, the
// convergence measure an operator watches on a long estimation run.
func publishCI(opt Options, lo, hi float64) {
	opt.Metrics.Gauge("montecarlo_ci_halfwidth", "Half-width of the estimator's 95% confidence interval.").
		Set((hi - lo) / 2)
}

// publishWeights records the likelihood-ratio extremes of a biased run —
// the first thing to look at when an importance-sampling estimate
// misbehaves (a runaway max weight means the biasing is mis-tuned).
func publishWeights(opt Options, w *stats.LogWeights) {
	if w.N() == 0 {
		return
	}
	opt.Metrics.Gauge("montecarlo_logweight_max", "Largest log likelihood ratio observed.").Set(w.Max)
	opt.Metrics.Gauge("montecarlo_logweight_min", "Smallest log likelihood ratio observed.").Set(w.Min)
}

// reliabilityRep runs one replication and returns the time of the first
// service failure of the target LC (or -1) plus the trajectory's log
// likelihood ratio up to that stopping time.
func reliabilityRep(opt Options, rep uint64, src *xrand.Source) (relOut, error) {
	r, inj, err := build(opt, rep, src)
	if err != nil {
		return relOut{}, err
	}
	inj.Start()
	k := r.Kernel()
	for k.Now() < sim.Time(opt.Horizon) {
		if !k.Step() {
			break
		}
		if !r.CanDeliverCached(opt.TargetLC) {
			return relOut{failedAt: float64(k.Now()), logW: inj.CheckpointLR()}, nil
		}
	}
	return relOut{failedAt: -1, logW: inj.CheckpointLR()}, nil
}

// AvailabilityResult is the outcome of EstimateAvailability.
type AvailabilityResult struct {
	Horizon float64
	// PerRep accumulates the per-replication time-averaged availability
	// of the target LC's service.
	PerRep stats.Welford
	// Batches and StopReason report the scheduler outcome.
	Batches    int
	StopReason string
	// Failed lists replications that panicked (repro bundles; excluded
	// from PerRep).
	Failed []FailedTrial
}

// Estimate returns the availability point estimate.
func (a AvailabilityResult) Estimate() float64 { return a.PerRep.Mean() }

// CI returns the normal 95% interval over replications.
func (a AvailabilityResult) CI() (lo, hi float64) { return a.PerRep.CI(1.96) }

// EstimateAvailability runs replications with repair and reports the
// time-averaged fraction of each horizon during which the target LC
// delivered service.
//
// It rejects Options.Biasing: a whole-horizon likelihood ratio spans many
// repair cycles, so its variance grows exponentially with the horizon and
// the weighted estimate degenerates. The regenerative
// EstimateUnavailability applies the weight per repair cycle — where it
// stays bounded — and is the correct tool for rare-event availability.
func EstimateAvailability(opt Options) (AvailabilityResult, error) {
	if err := opt.Validate(); err != nil {
		return AvailabilityResult{}, err
	}
	if opt.Rates.Repair <= 0 {
		return AvailabilityResult{}, fmt.Errorf("montecarlo: availability runs need repair")
	}
	if opt.Biasing.Enabled {
		return AvailabilityResult{}, fmt.Errorf("montecarlo: whole-horizon availability cannot be importance-sampled (weight variance explodes across repair cycles); use EstimateUnavailability")
	}
	res := AvailabilityResult{Horizon: opt.Horizon}
	if cp := opt.Resume; cp != nil && cp.PerRep != nil {
		res.PerRep.Restore(*cp.PerRep)
	}
	snap := func() Checkpoint {
		pr := res.PerRep.State()
		return Checkpoint{PerRep: &pr}
	}
	batches, reason, failed, err := drive(opt, ModeAvailability, availabilityRep,
		func(a float64) { res.PerRep.Add(a) },
		func() float64 { return res.PerRep.RelHalfWidth(1.96) }, snap)
	if err != nil {
		return res, err
	}
	res.Batches, res.StopReason, res.Failed = batches, reason, failed
	lo, hi := res.CI()
	publishCI(opt, lo, hi)
	return res, nil
}

// availabilityRep runs one replication and returns the time-averaged
// availability of the target LC's service.
func availabilityRep(opt Options, rep uint64, src *xrand.Source) (float64, error) {
	r, inj, err := build(opt, rep, src)
	if err != nil {
		return 0, err
	}
	inj.Start()
	k := r.Kernel()
	tracker := sim.NewUpDownTracker(k)
	for k.Now() < sim.Time(opt.Horizon) {
		if !k.Step() {
			break
		}
		tracker.SetUp(r.CanDeliverCached(opt.TargetLC))
	}
	k.RunUntil(sim.Time(opt.Horizon))
	tracker.SetUp(r.CanDeliverCached(opt.TargetLC))
	return tracker.Availability(), nil
}

// build constructs the router and injector for one replication on its own
// pre-split random stream.
func build(opt Options, rep uint64, src *xrand.Source) (*router.Router, *router.Injector, error) {
	cfg := router.UniformConfig(opt.Arch, opt.N, opt.M)
	cfg.Topology = opt.Topology
	cfg.Source = src
	r, err := router.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	r.InstallUniformRoutes()
	r.SetMetrics(opt.Metrics)
	if opt.OnBuild != nil {
		opt.OnBuild(rep, r)
	}
	inj, err := router.NewInjector(r, opt.Rates)
	if err != nil {
		return nil, nil, err
	}
	b := opt.Biasing
	if b.Enabled {
		// Switch the biasing off once the target LC's service is down:
		// the rare set has been hit, and continuing to inflate rates
		// while waiting for the repair only adds exposure variance to the
		// very cycles that carry the estimate (see router.Biasing).
		b.StopWhen = func() bool { return !r.CanDeliverCached(opt.TargetLC) }
	}
	if err := inj.SetBiasing(b); err != nil {
		return nil, nil, err
	}
	return r, inj, nil
}
