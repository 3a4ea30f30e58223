package dra

import (
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/perf"
	"repro/internal/router"
	"repro/internal/trace"
)

// This file extends the facade with the secondary analyses: model-reading
// variants, sensitivity, the redundant-LC sparing baseline, scenarios,
// and tracing.

// Scenario scripts fault/repair timelines against a Router.
type Scenario = router.Scenario

// ScenarioSample is one observation of a played scenario.
type ScenarioSample = router.Sample

// TimelineString renders scenario samples compactly.
func TimelineString(samples []ScenarioSample) string { return router.TimelineString(samples) }

// TraceRecorder is the structured event log routers can emit into.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a ring-buffer recorder of the given capacity.
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.New(capacity) }

// TraceKind classifies trace events.
type TraceKind = trace.Kind

// The trace event kinds routers emit.
const (
	TraceFault        = trace.Fault
	TraceRepair       = trace.Repair
	TraceCoverageUp   = trace.CoverageUp
	TraceCoverageDown = trace.CoverageDown
	TraceBusDown      = trace.BusDown
	TraceBusUp        = trace.BusUp
	TraceDrop         = trace.Drop
)

// MetricsRegistry aggregates live counters, gauges and histograms from
// routers, kernels, and estimators (see internal/metrics and
// docs/observability.md). Attach with Router.SetMetrics or
// MCOptions.Metrics; render with PrometheusText or SnapshotJSON.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry. Routers instrumented
// against a nil registry pay (almost) nothing.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// ChromeTimeline exports a recorder's events as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. tsScale converts one unit of
// simulated time into microseconds (1e6 for seconds, 3.6e9 for hours).
func ChromeTimeline(r *TraceRecorder, tsScale float64) ([]byte, error) {
	return trace.ChromeExportRecorder(r, tsScale)
}

// Sensitivity ranks failure rates by their effect on DRA reliability.
type Sensitivity = models.Sensitivity

// ReliabilitySensitivity returns ∂R(t)/∂λ and elasticities for every
// model rate.
func ReliabilitySensitivity(p ModelParams, t float64) ([]Sensitivity, error) {
	return models.ReliabilitySensitivity(p, t, 0)
}

// SparingParams describes the dedicated-standby baseline of the paper's
// introduction.
type SparingParams = models.SparingParams

// SparingReliabilityModel builds the k-spare hot-standby reliability
// chain.
func SparingReliabilityModel(p SparingParams) (*Model, error) { return models.SparingReliability(p) }

// SparingAvailabilityModel builds the repairable k-spare chain.
func SparingAvailabilityModel(p SparingParams) (*Model, error) { return models.SparingAvailability(p) }

// ReliabilityModelVariant selects alternative readings of the paper's
// ambiguous Figure 5(b) for sensitivity-to-interpretation studies.
type ReliabilityModelVariant int

// The three defensible readings, ordered pessimistic → optimistic.
const (
	VariantConservative ReliabilityModelVariant = iota
	VariantPrimary
	VariantOptimistic
)

// DRAReliabilityVariant builds the requested reading of the DRA chain.
func DRAReliabilityVariant(v ReliabilityModelVariant, p ModelParams) (*Model, error) {
	switch v {
	case VariantConservative:
		return models.DRAReliabilityConservative(p)
	case VariantOptimistic:
		return models.DRAReliabilityOptimisticTPrime(p)
	default:
		return models.DRAReliability(p)
	}
}

// LoadScenarioFile reads a JSON router+timeline description (see
// internal/config for the schema) and returns the built router and its
// scenario, ready to Play.
func LoadScenarioFile(path string) (*Router, *Scenario, error) {
	f, err := config.LoadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return f.Build()
}

// DegradationCurve evaluates the Figure 8 series for arbitrary N, load,
// and B_BUS.
func DegradationCurve(n int, load, busCapacity float64) []float64 {
	p := perf.Params{N: n, CLC: 10e9, Load: load, BusCapacity: busCapacity}
	return p.Curve()
}
