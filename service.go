package dra

// service.go wires the drad job service to the actual engines. The
// scheduling core (internal/jobs) is engine-agnostic — it runs Runners
// registered per job kind — and this facade, living in the root package
// above every engine, is where the kinds meet their implementations:
//
//	figure        → ComputeFigure{6,7,8…} sweeps
//	sweep         → the Markov-model N×M grid (internal/models)
//	reliability   → montecarlo.EstimateReliability
//	availability  → montecarlo.EstimateAvailability
//	rareevent     → montecarlo.EstimateUnavailability (failure biasing)
//	chaos         → chaos.Run under the invariant wall
//	scenario      → config.File timeline replay
//
// The Monte-Carlo runners thread the job's checkpoint path into the
// engine lifecycle (OnBatch/Resume), so a drad drained mid-job resumes
// it bit-identically after restart — same contract as `drasim
// -checkpoint/-resume`, inherited from the batch scheduler's
// deterministic stream splitting.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/invariant"
	"repro/internal/jobs"
	"repro/internal/linecard"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/montecarlo"
	"repro/internal/router"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// DefaultRunners maps every job kind to its engine. The returned map is
// fresh per call; callers may add or replace entries.
func DefaultRunners() map[string]jobs.Runner {
	return map[string]jobs.Runner{
		config.KindFigure:       runFigureJob,
		config.KindSweep:        runSweepJob,
		config.KindReliability:  runMCJob,
		config.KindAvailability: runMCJob,
		config.KindRareEvent:    runMCJob,
		config.KindObservatory:  runObservatoryJob,
		config.KindChaos:        runChaosJob,
		config.KindScenario:     runScenarioJob,
	}
}

// MCResult is the result document of the Monte-Carlo kinds.
type MCResult struct {
	Kind string `json:"kind"`
	Arch string `json:"arch"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	// Topology is the interconnect kind in ParseFlag shorthand; omitted
	// for the default bus.
	Topology string  `json:"topology,omitempty"`
	Estimate float64 `json:"estimate"`
	CILo     float64 `json:"ci_lo"`
	CIHi     float64 `json:"ci_hi"`
	// Trials is the replication count actually folded.
	Trials uint64 `json:"trials"`
	// StopReason is the engine's stopping verdict (fixed, target,
	// budget).
	StopReason string `json:"stop_reason"`
	// MeanTTF is the mean observed time to service failure (reliability
	// kind, failures observed only).
	MeanTTF float64 `json:"mean_ttf_hours,omitempty"`
	// RelErr is the achieved relative 95% CI half-width (rareevent kind).
	RelErr float64 `json:"rel_err,omitempty"`
}

// archOf maps a normalized spec's arch string to the linecard constant.
func archOf(s string) (linecard.Arch, error) {
	switch s {
	case "", "dra":
		return linecard.DRA, nil
	case "bdr":
		return linecard.BDR, nil
	default:
		return 0, fmt.Errorf("unknown arch %q", s)
	}
}

// mcOptions builds the engine option set shared by the Monte-Carlo
// kinds, wiring the job's context and checkpoint lifecycle. A spec that
// leaves mc.workers at 0 runs on the pool slots the manager granted the
// job at dispatch (RunContext.Workers); estimates are bit-identical for
// any worker count, which is why workers is outside the JobID.
func mcOptions(ctx context.Context, rc jobs.RunContext, sp config.Spec) (montecarlo.Options, error) {
	a, err := archOf(sp.Router.Arch)
	if err != nil {
		return montecarlo.Options{}, err
	}
	mu := 0.0
	if sp.Kind != config.KindReliability {
		mu = sp.MC.Mu
	}
	workers := sp.MC.Workers
	if workers == 0 {
		workers = rc.Workers
	}
	opt := montecarlo.Options{
		Arch: a, N: sp.Router.N, M: sp.Router.M, Rates: router.PaperRates(mu),
		Horizon: sp.MC.Horizon, Reps: sp.MC.Reps, Seed: sp.MC.Seed,
		Workers: workers, TargetRelErr: sp.MC.TargetRelErr,
		Batch: sp.MC.Batch, CyclesPerRep: sp.MC.CyclesPerRep,
		Ctx: ctx, Metrics: rc.Metrics,
	}
	if sp.Router.Topology != nil {
		opt.Topology = *sp.Router.Topology
	}
	if (sp.Kind == config.KindRareEvent || sp.Kind == config.KindObservatory) && sp.MC.Delta > 0 {
		opt.Biasing = router.Biasing{Enabled: true, Delta: sp.MC.Delta}
	}
	if opt.Batch <= 0 && opt.TargetRelErr <= 0 {
		// A fixed-count run with no explicit batch executes as a single
		// batch, so the engine would notice cancellation or drain only
		// after every replication finished. Service jobs must stay
		// cancellable and checkpointable, so give them the engine's
		// default batch granularity (per-replication RNG streams are
		// split identically regardless of batching, so results don't
		// change).
		opt.Batch = montecarlo.DefaultBatch
	}
	if rc.CheckpointPath != "" {
		path := rc.CheckpointPath
		opt.OnBatch = func(cp montecarlo.Checkpoint) {
			// Atomic write: a crash mid-checkpoint never corrupts the
			// resume state (WriteFile is temp+rename).
			if err := cp.WriteFile(path); err != nil {
				rc.Progress("checkpoint write failed: " + err.Error())
			}
		}
		if _, err := os.Stat(path); err == nil {
			cp, err := montecarlo.LoadCheckpoint(path)
			if err == nil {
				opt.Resume = &cp
				rc.Progress(fmt.Sprintf("resuming from checkpoint (%d reps done)", cp.RepsDone))
			} else {
				rc.Progress("checkpoint unreadable, starting fresh: " + err.Error())
			}
		}
	}
	if rc.Telemetry != nil {
		// Publish the converging estimate at every batch boundary, after
		// the checkpoint write: a published window is always backed by a
		// durable checkpoint, so the resumed engine re-emits nothing the
		// hub hasn't seen (its stale filter drops the replayed boundary)
		// and skips nothing (the next boundary extends the series). The
		// window coordinate is RepsDone — deterministic under the batch
		// scheduler's stream splitting, so a drained-and-resumed series
		// byte-matches an uninterrupted control.
		inner := opt.OnBatch
		rcT := rc.Telemetry
		opt.OnBatch = func(cp montecarlo.Checkpoint) {
			if inner != nil {
				inner(cp)
			}
			p := cp.Progress()
			rcT(telemetry.Sample{
				Window:       p.RepsDone,
				Estimate:     p.Estimate,
				Availability: p.Availability,
				RelErr:       p.RelErr,
				CIHalf:       (p.CIHi - p.CILo) / 2,
				ESS:          p.ESS,
				Trials:       p.Trials,
			})
		}
	}
	return opt, nil
}

// runMCJob executes the reliability / availability / rareevent kinds.
// On cancellation the engine stops at the next batch boundary and this
// runner returns the partial result with a nil error; the manager
// classifies the outcome by the cancellation cause (drain keeps the
// checkpoint for a bit-identical resume, user cancel discards it).
func runMCJob(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
	sp := spec.Normalize()
	opt, err := mcOptions(ctx, rc, sp)
	if err != nil {
		return nil, err
	}
	switch sp.Kind {
	case config.KindReliability:
		res, err := montecarlo.EstimateReliability(opt)
		if err != nil {
			return nil, err
		}
		return relResultDoc(sp, &res)
	case config.KindAvailability:
		res, err := montecarlo.EstimateAvailability(opt)
		if err != nil {
			return nil, err
		}
		return availResultDoc(sp, &res)
	case config.KindRareEvent:
		res, err := montecarlo.EstimateUnavailability(opt)
		if err != nil {
			return nil, err
		}
		return rareResultDoc(sp, &res)
	default:
		return nil, fmt.Errorf("runMCJob: kind %q", sp.Kind)
	}
}

// The result-document builders are shared between the standalone
// runners and the fleet merge path (fleetshard.go), which is what makes
// "merged shard result ≡ standalone result" a byte-level identity: both
// paths construct the document through the same code.

func baseMCDoc(sp config.Spec) MCResult {
	return MCResult{Kind: sp.Kind, Arch: strings.ToUpper(archName(sp.Router.Arch)), N: sp.Router.N, M: sp.Router.M, Topology: topologyName(sp)}
}

func relResultDoc(sp config.Spec, res *montecarlo.ReliabilityResult) (json.RawMessage, error) {
	doc := baseMCDoc(sp)
	doc.Estimate = res.Estimate()
	doc.CILo, doc.CIHi = res.CI()
	doc.Trials = uint64(res.Failure.N())
	doc.StopReason = res.StopReason
	if res.TTF.N() > 0 {
		doc.MeanTTF = res.TTF.Mean()
	}
	return json.Marshal(doc)
}

func availResultDoc(sp config.Spec, res *montecarlo.AvailabilityResult) (json.RawMessage, error) {
	doc := baseMCDoc(sp)
	doc.Estimate = res.Estimate()
	doc.CILo, doc.CIHi = res.CI()
	doc.Trials = uint64(res.PerRep.N())
	doc.StopReason = res.StopReason
	return json.Marshal(doc)
}

func rareResultDoc(sp config.Spec, res *montecarlo.UnavailabilityResult) (json.RawMessage, error) {
	doc := baseMCDoc(sp)
	doc.Estimate = res.Estimate()
	doc.CILo, doc.CIHi = res.CI()
	doc.Trials = res.Cycles
	doc.StopReason = res.StopReason
	doc.RelErr = res.RelHalfWidth()
	return json.Marshal(doc)
}

// ObservatoryResult is the result document of the observatory kind: a
// long-horizon availability watch. The fields are deterministic
// functions of the spec (no wall-clock, no window counts that differ
// across drain/resume), so a resumed observatory stores the same
// document an uninterrupted one would.
type ObservatoryResult struct {
	Kind         string  `json:"kind"`
	Arch         string  `json:"arch"`
	N            int     `json:"n"`
	M            int     `json:"m"`
	Topology     string  `json:"topology,omitempty"`
	Estimate     float64 `json:"estimate"` // unavailability point estimate
	Availability float64 `json:"availability"`
	CILo         float64 `json:"ci_lo"`
	CIHi         float64 `json:"ci_hi"`
	RelErr       float64 `json:"rel_err"`
	Cycles       uint64  `json:"cycles"`
	DownCycles   uint64  `json:"down_cycles"`
	StopReason   string  `json:"stop_reason"`
}

// runObservatoryJob executes the observatory kind: the rare-event
// unavailability estimator run as a long-horizon watch. The telemetry
// wrapper installed by mcOptions publishes the converging availability
// estimate and CI at every batch boundary, so the estimate is
// queryable over /v1/telemetry while the job runs; the checkpoint
// lifecycle makes a drained observatory resume bit-identically, its
// telemetry series extending without gap or duplicate.
func runObservatoryJob(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
	sp := spec.Normalize()
	opt, err := mcOptions(ctx, rc, sp)
	if err != nil {
		return nil, err
	}
	res, err := montecarlo.EstimateUnavailability(opt)
	if err != nil {
		return nil, err
	}
	doc := ObservatoryResult{
		Kind: sp.Kind, Arch: strings.ToUpper(archName(sp.Router.Arch)),
		N: sp.Router.N, M: sp.Router.M,
		Topology:     topologyName(sp),
		Estimate:     res.Estimate(),
		Availability: 1 - res.Estimate(),
		RelErr:       res.RelHalfWidth(),
		Cycles:       res.Cycles,
		DownCycles:   res.DownCycles,
		StopReason:   res.StopReason,
	}
	doc.CILo, doc.CIHi = res.CI()
	return json.Marshal(doc)
}

func archName(s string) string {
	if s == "" {
		return "dra"
	}
	return s
}

// topologyName renders a spec's topology axis for result documents;
// empty (omitted in JSON) for the default bus interconnect.
func topologyName(sp config.Spec) string {
	if sp.Router.Topology == nil {
		return ""
	}
	return sp.Router.Topology.String()
}

// FigureResult is the result document of the figure kind: the rendered
// text exactly as drareport prints it.
type FigureResult struct {
	Fig  int    `json:"fig"`
	Body string `json:"body"`
}

func runFigureJob(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
	sp := spec.Normalize()
	opt := sweep.Options{Metrics: rc.Metrics, Name: fmt.Sprintf("figure%d", sp.Figure.Fig)}
	var body string
	switch sp.Figure.Fig {
	case 6:
		f6, err := ComputeFigure6With(ctx, opt)
		if err != nil {
			return nil, err
		}
		body = RenderFigure6(f6)
	case 7:
		f7, err := ComputeFigure7With(ctx, opt)
		if err != nil {
			return nil, err
		}
		body = RenderFigure7(f7)
	case 8:
		f8, err := ComputeFigure8Sweep(ctx, opt, sp.Figure.N, sp.Figure.Bus)
		if err != nil {
			return nil, err
		}
		body = RenderFigure8(f8)
	default:
		return nil, fmt.Errorf("figure %d not computable (want 6, 7, 8)", sp.Figure.Fig)
	}
	return json.Marshal(FigureResult{Fig: sp.Figure.Fig, Body: body})
}

// SweepCell is one (N, M) evaluation of a sweep job.
type SweepCell struct {
	N     int     `json:"n"`
	M     int     `json:"m"`
	Value float64 `json:"value"`
}

// SweepResult is the result document of the sweep kind.
type SweepResult struct {
	Analysis string      `json:"analysis"`
	Arch     string      `json:"arch"`
	Cells    []SweepCell `json:"cells"`
}

// gridCell is one (N, M) point of a sweep grid.
type gridCell struct{ N, M int }

// sweepGrid enumerates the valid (N, M) cells of a sweep spec, in the
// canonical row-major order every consumer (standalone runner, fleet
// tile planner, merge) shares.
func sweepGrid(sp config.Spec) []gridCell {
	var cells []gridCell
	for n := sp.Sweep.NLo; n <= sp.Sweep.NHi; n++ {
		for m := sp.Sweep.MLo; m <= sp.Sweep.MHi; m++ {
			if n >= 2 && m >= 1 && m <= n {
				cells = append(cells, gridCell{n, m})
			}
		}
	}
	return cells
}

// sweepEval builds the per-cell analytic evaluator of a sweep spec.
// Each cell is a pure function of (spec, cell) — deterministic no
// matter which process evaluates it.
func sweepEval(sp config.Spec) func(c gridCell) (float64, error) {
	return func(c gridCell) (float64, error) {
		p := models.PaperParams(c.N, c.M)
		switch sp.Sweep.Analysis {
		case "reliability":
			md, err := models.DRAReliability(p)
			if err != nil {
				return 0, err
			}
			return md.ReliabilityAt(sp.Sweep.T), nil
		case "availability":
			p.Mu = sp.Sweep.Mu
			md, err := models.DRAAvailability(p)
			if err != nil {
				return 0, err
			}
			return md.Availability(), nil
		case "mttf":
			md, err := models.DRAReliability(p)
			if err != nil {
				return 0, err
			}
			return md.MTTF()
		default:
			return 0, fmt.Errorf("analysis %q does not support sweep", sp.Sweep.Analysis)
		}
	}
}

// sweepResultDoc builds the sweep result document from the grid and its
// values — shared by runSweepJob and the fleet tile merge.
func sweepResultDoc(sp config.Spec, cells []gridCell, vals []float64) (json.RawMessage, error) {
	doc := SweepResult{Analysis: sp.Sweep.Analysis, Arch: "DRA"}
	for i, c := range cells {
		doc.Cells = append(doc.Cells, SweepCell{N: c.N, M: c.M, Value: vals[i]})
	}
	return json.Marshal(doc)
}

func runSweepJob(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
	sp := spec.Normalize()
	cells := sweepGrid(sp)
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep grid has no valid (N, M) cells")
	}
	eval := sweepEval(sp)
	opt := sweep.Options{Workers: sp.Sweep.Workers, Metrics: rc.Metrics, Name: "drad_sweep_" + sp.Sweep.Analysis}
	vals, err := sweep.Map(ctx, cells, opt, func(_ context.Context, c gridCell) (float64, error) {
		return eval(c)
	})
	if err != nil {
		return nil, err
	}
	return sweepResultDoc(sp, cells, vals)
}

// ChaosJobResult is the result document of the chaos kind (the full
// repro bundle stays CLI territory; the service stores the verdict).
type ChaosJobResult struct {
	Name           string   `json:"name"`
	Steps          int      `json:"steps"`
	TimelineEvents int      `json:"timeline_events"`
	Delivered      uint64   `json:"delivered"`
	Dropped        uint64   `json:"dropped"`
	FailedExpects  int      `json:"failed_expects"`
	Violations     []string `json:"violations,omitempty"`
	Passed         bool     `json:"passed"`
}

func runChaosJob(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
	sp := spec.Normalize()
	c, err := chaos.Parse(sp.Chaos)
	if err != nil {
		return nil, err
	}
	checker := invariant.New()
	var violations atomic.Uint64
	if rc.Telemetry != nil {
		// Stream every invariant violation the wall catches — including
		// those past the checker's retention bound — as its own window.
		// The running violation count is the job's monotone progress
		// coordinate.
		checker.SetSink(func(v invariant.Violation) {
			n := violations.Add(1)
			rc.Telemetry(telemetry.Sample{
				Window:          n,
				Violations:      1,
				ViolationsTotal: n,
			})
		})
	}
	res, err := chaos.Run(c, chaos.Options{
		Ctx:     ctx,
		Checker: checker,
		Metrics: rc.Metrics,
	})
	if rc.Telemetry != nil {
		// One closing sample carries the campaign's counter increments
		// and gauge levels (delivered/dropped/…): the registry-delta view
		// of the run, windowed past every violation sample.
		counters, gauges := metrics.NewDelta(rc.Metrics).Collect()
		rc.Telemetry(telemetry.Sample{
			Window:          violations.Load() + 1,
			ViolationsTotal: violations.Load(),
			Counters:        counters,
			Gauges:          gauges,
		})
	}
	if err != nil {
		return nil, err
	}
	doc := ChaosJobResult{
		Name:           c.Name,
		Steps:          len(res.Samples),
		TimelineEvents: len(res.Timeline),
		Delivered:      res.Metrics.Delivered,
		Dropped:        res.Metrics.Dropped,
		FailedExpects:  len(res.Expects),
		Passed:         res.Err() == nil,
	}
	for _, v := range res.Violations {
		doc.Violations = append(doc.Violations, fmt.Sprint(v))
	}
	return json.Marshal(doc)
}

// ScenarioResult is the result document of the scenario kind: the
// replayed timeline exactly as `drasim -mode scenario` prints it.
type ScenarioResult struct {
	Timeline string `json:"timeline"`
}

func runScenarioJob(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
	sp := spec.Normalize()
	f, err := config.Parse(sp.Scenario)
	if err != nil {
		return nil, err
	}
	r, sc, err := f.Build()
	if err != nil {
		return nil, err
	}
	if rc.Metrics != nil {
		r.SetMetrics(rc.Metrics)
	}
	if rc.Trace != nil {
		r.SetTracer(rc.Trace)
	}
	return json.Marshal(ScenarioResult{Timeline: router.TimelineString(sc.Play(r))})
}
