package montecarlo

// Deterministic sharding of fixed-count estimation runs across a worker
// fleet.
//
// A replication's random stream depends only on (Seed, replication
// index): streams are split sequentially from the master, so the stream
// of rep i is the master state after i jumps (see TrialStream). A shard
// [Lo, Hi) therefore runs its replications bit-identically no matter
// which worker executes it, how often it is killed and re-run, or what
// the other shards are doing.
//
// Shards return RAW per-replication outcomes, not folded accumulators:
// Welford/ratio accumulators are order-sensitive recurrences, so merging
// partial accumulator states would not reproduce the standalone result
// bit-for-bit. Instead the coordinator folds every shard's outcomes in
// global replication order through the same fold methods the standalone
// estimators use (foldOutcome, foldCycle, Welford.Add) — the merged
// result is the standalone result, byte for byte.
//
// Only fixed-count runs shard (TargetRelErr must be zero): a sequential
// stopping rule is a global decision over the fold order and cannot be
// evaluated per shard.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/xrand"
)

// RelOutcome is one reliability replication's raw outcome on the wire.
// encoding/json round-trips float64 exactly, so shipping outcomes
// through a coordinator loses nothing.
type RelOutcome struct {
	// FailedAt is the time of the first service failure, -1 if the
	// service survived the horizon.
	FailedAt float64 `json:"failed_at"`
	// LogW is the trajectory's accumulated log likelihood ratio
	// (0 for unbiased runs).
	LogW float64 `json:"log_w"`
}

// CycleOutcome is one regenerative cycle's raw outcome on the wire.
type CycleOutcome struct {
	LogW     float64 `json:"log_w"`
	Down     float64 `json:"down"`
	WentDown bool    `json:"went_down,omitempty"`
	Tau      float64 `json:"tau"`
}

// ShardResult carries a shard's raw outcomes back to the merge. Exactly
// one of Rel, Avail, Cycles is populated, indexed by rep−Lo; slots of
// replications that panicked are zero-valued and recorded in Failed
// (keyed by FailedTrial.Rep), mirroring how the standalone scheduler
// excludes failed trials from the fold.
type ShardResult struct {
	Mode string `json:"mode"`
	Seed uint64 `json:"seed"`
	Lo   uint64 `json:"lo"`
	Hi   uint64 `json:"hi"`

	Rel    []RelOutcome     `json:"rel,omitempty"`
	Avail  []float64        `json:"avail,omitempty"`
	Cycles [][]CycleOutcome `json:"cycles,omitempty"`

	Failed []FailedTrial `json:"failed,omitempty"`
}

// shardMaster positions the master generator at replication lo.
func shardMaster(seed, lo uint64) *xrand.Source {
	m := xrand.New(seed)
	for i := uint64(0); i < lo; i++ {
		m.Jump()
	}
	return m
}

// validateShard rejects shard bounds outside the run.
func validateShard(opt Options, lo, hi uint64) error {
	if lo >= hi || hi > uint64(opt.Reps) {
		return fmt.Errorf("montecarlo: shard [%d, %d) outside run of %d reps", lo, hi, opt.Reps)
	}
	if opt.TargetRelErr > 0 {
		return fmt.Errorf("montecarlo: sequential-stopping runs cannot shard (the stopping rule is a global fold-order decision)")
	}
	return nil
}

// runShard executes replications [lo, hi) in batch-sized chunks (for
// Ctx interruption granularity) and records raw outcomes via record.
func runShard[T any](opt Options, lo, hi uint64,
	one func(Options, uint64, *xrand.Source) (T, error),
	record func(rep uint64, v T), failed *[]FailedTrial) error {
	master := shardMaster(opt.Seed, lo)
	batch := uint64(opt.batchSize())
	for done := lo; done < hi; {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return context.Cause(opt.Ctx)
		}
		n := batch
		if rest := hi - done; n > rest {
			n = rest
		}
		streams := splitN(master, int(n))
		err := runBatch(opt, done, streams, one, func(i int, tr trialResult[T]) {
			if tr.failed != nil {
				*failed = append(*failed, *tr.failed)
				return
			}
			record(done+uint64(i), tr.v)
		})
		if err != nil {
			return err
		}
		done += n
	}
	return nil
}

// RunReliabilityShard runs replications [lo, hi) of a reliability run
// and returns their raw outcomes.
func RunReliabilityShard(opt Options, lo, hi uint64) (ShardResult, error) {
	if err := opt.Validate(); err != nil {
		return ShardResult{}, err
	}
	if opt.Rates.Repair != 0 {
		return ShardResult{}, fmt.Errorf("montecarlo: reliability runs must not repair")
	}
	if err := validateShard(opt, lo, hi); err != nil {
		return ShardResult{}, err
	}
	out := ShardResult{Mode: ModeReliability, Seed: opt.Seed, Lo: lo, Hi: hi,
		Rel: make([]RelOutcome, hi-lo)}
	err := runShard(opt, lo, hi, reliabilityRep, func(rep uint64, v relOut) {
		out.Rel[rep-lo] = RelOutcome{FailedAt: v.failedAt, LogW: v.logW}
	}, &out.Failed)
	return out, err
}

// RunAvailabilityShard runs replications [lo, hi) of an availability
// run and returns their raw outcomes.
func RunAvailabilityShard(opt Options, lo, hi uint64) (ShardResult, error) {
	if err := opt.Validate(); err != nil {
		return ShardResult{}, err
	}
	if opt.Rates.Repair <= 0 {
		return ShardResult{}, fmt.Errorf("montecarlo: availability runs need repair")
	}
	if opt.Biasing.Enabled {
		return ShardResult{}, fmt.Errorf("montecarlo: whole-horizon availability cannot be importance-sampled; use EstimateUnavailability")
	}
	if err := validateShard(opt, lo, hi); err != nil {
		return ShardResult{}, err
	}
	out := ShardResult{Mode: ModeAvailability, Seed: opt.Seed, Lo: lo, Hi: hi,
		Avail: make([]float64, hi-lo)}
	err := runShard(opt, lo, hi, availabilityRep, func(rep uint64, v float64) {
		out.Avail[rep-lo] = v
	}, &out.Failed)
	return out, err
}

// RunUnavailabilityShard runs replications [lo, hi) of a regenerative
// unavailability run and returns their raw per-cycle outcomes.
func RunUnavailabilityShard(opt Options, lo, hi uint64) (ShardResult, error) {
	if opt.Horizon == 0 {
		opt.Horizon = 1 // unused by the regenerative estimator
	}
	if err := opt.Validate(); err != nil {
		return ShardResult{}, err
	}
	if opt.Rates.Repair <= 0 {
		return ShardResult{}, fmt.Errorf("montecarlo: regenerative unavailability needs repair")
	}
	if err := validateShard(opt, lo, hi); err != nil {
		return ShardResult{}, err
	}
	out := ShardResult{Mode: ModeUnavailability, Seed: opt.Seed, Lo: lo, Hi: hi,
		Cycles: make([][]CycleOutcome, hi-lo)}
	err := runShard(opt, lo, hi, unavailabilityRep, func(rep uint64, cs []cycleOut) {
		ocs := make([]CycleOutcome, len(cs))
		for i, c := range cs {
			ocs[i] = CycleOutcome{LogW: c.logW, Down: c.down, WentDown: c.wentDown, Tau: c.tau}
		}
		out.Cycles[rep-lo] = ocs
	}, &out.Failed)
	return out, err
}

// orderShards sorts a copy of parts by Lo and verifies they tile
// [0, Reps) contiguously with matching mode and seed.
func orderShards(opt Options, mode string, parts []ShardResult) ([]ShardResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("montecarlo: no shards to merge")
	}
	sorted := append([]ShardResult(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	next := uint64(0)
	for _, p := range sorted {
		if p.Mode != mode {
			return nil, fmt.Errorf("montecarlo: shard [%d, %d) is a %s shard, merge expects %s", p.Lo, p.Hi, p.Mode, mode)
		}
		if p.Seed != opt.Seed {
			return nil, fmt.Errorf("montecarlo: shard [%d, %d) ran under seed %d, merge expects %d", p.Lo, p.Hi, p.Seed, opt.Seed)
		}
		if p.Lo != next {
			return nil, fmt.Errorf("montecarlo: shard gap at rep %d (next shard starts at %d)", next, p.Lo)
		}
		next = p.Hi
	}
	if next != uint64(opt.Reps) {
		return nil, fmt.Errorf("montecarlo: shards cover [0, %d), run has %d reps", next, opt.Reps)
	}
	return sorted, nil
}

// failedSet indexes a shard's failed replications.
func failedSet(p ShardResult) map[uint64]bool {
	if len(p.Failed) == 0 {
		return nil
	}
	s := make(map[uint64]bool, len(p.Failed))
	for _, f := range p.Failed {
		s[f.Rep] = true
	}
	return s
}

// mergeBatches reports the batch count the standalone scheduler would
// have recorded for the same fixed-count run.
func mergeBatches(opt Options) int {
	b := opt.Reps
	if opt.TargetRelErr > 0 || opt.Batch > 0 {
		b = opt.batchSize()
	}
	return (opt.Reps + b - 1) / b
}

// MergeReliabilityShards folds shard outcomes in global replication
// order into the result EstimateReliability would have produced for the
// same options — bit-identical, including TTF sample order and failed
// trials.
func MergeReliabilityShards(opt Options, parts []ShardResult) (ReliabilityResult, error) {
	if err := opt.Validate(); err != nil {
		return ReliabilityResult{}, err
	}
	sorted, err := orderShards(opt, ModeReliability, parts)
	if err != nil {
		return ReliabilityResult{}, err
	}
	res := ReliabilityResult{Horizon: opt.Horizon, Biased: opt.Biasing.Enabled}
	for _, p := range sorted {
		skip := failedSet(p)
		for rep := p.Lo; rep < p.Hi; rep++ {
			if skip[rep] {
				continue
			}
			o := p.Rel[rep-p.Lo]
			res.foldOutcome(opt.Horizon, relOut{failedAt: o.FailedAt, logW: o.LogW})
		}
		res.Failed = append(res.Failed, p.Failed...)
	}
	res.Batches, res.StopReason = mergeBatches(opt), StopFixed
	lo, hi := res.CI()
	publishCI(opt, lo, hi)
	if res.Biased {
		publishWeights(opt, &res.Weights)
	}
	return res, nil
}

// MergeAvailabilityShards folds shard outcomes in global replication
// order into the result EstimateAvailability would have produced.
func MergeAvailabilityShards(opt Options, parts []ShardResult) (AvailabilityResult, error) {
	if err := opt.Validate(); err != nil {
		return AvailabilityResult{}, err
	}
	sorted, err := orderShards(opt, ModeAvailability, parts)
	if err != nil {
		return AvailabilityResult{}, err
	}
	res := AvailabilityResult{Horizon: opt.Horizon}
	for _, p := range sorted {
		skip := failedSet(p)
		for rep := p.Lo; rep < p.Hi; rep++ {
			if !skip[rep] {
				res.PerRep.Add(p.Avail[rep-p.Lo])
			}
		}
		res.Failed = append(res.Failed, p.Failed...)
	}
	res.Batches, res.StopReason = mergeBatches(opt), StopFixed
	lo, hi := res.CI()
	publishCI(opt, lo, hi)
	return res, nil
}

// MergeUnavailabilityShards folds shard cycles in global replication
// order into the result EstimateUnavailability would have produced.
func MergeUnavailabilityShards(opt Options, parts []ShardResult) (UnavailabilityResult, error) {
	if opt.Horizon == 0 {
		opt.Horizon = 1
	}
	if err := opt.Validate(); err != nil {
		return UnavailabilityResult{}, err
	}
	sorted, err := orderShards(opt, ModeUnavailability, parts)
	if err != nil {
		return UnavailabilityResult{}, err
	}
	cyclesCtr := opt.Metrics.Counter("montecarlo_cycles_total", "Regenerative repair cycles simulated.")
	downCtr := opt.Metrics.Counter("montecarlo_down_cycles_total", "Cycles in which the target LC lost service.")
	res := UnavailabilityResult{}
	for _, p := range sorted {
		skip := failedSet(p)
		for rep := p.Lo; rep < p.Hi; rep++ {
			if skip[rep] {
				continue
			}
			for _, c := range p.Cycles[rep-p.Lo] {
				res.foldCycle(cycleOut{logW: c.LogW, down: c.Down, wentDown: c.WentDown, tau: c.Tau}, cyclesCtr, downCtr)
			}
		}
		res.Failed = append(res.Failed, p.Failed...)
	}
	res.Batches, res.StopReason = mergeBatches(opt), StopFixed
	lo, hi := res.CI()
	publishCI(opt, lo, hi)
	publishWeights(opt, &res.Weights)
	return res, nil
}
