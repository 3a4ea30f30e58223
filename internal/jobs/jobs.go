// Package jobs is the scheduling core of the drad service: a priority
// job queue with bounded admission control, per-kind concurrency
// limits, deterministic job IDs derived from the canonicalized spec
// (config.Spec.JobID), content-addressed result caching through
// internal/store, cancellation, and crash-safe execution — Monte-Carlo
// jobs run through the montecarlo lifecycle checkpoints, and a drained
// or killed server requeues its interrupted jobs on restart and resumes
// them bit-identically.
//
// The package is engine-agnostic: it schedules Runners registered per
// job kind; the wiring of kinds to the actual figure/sweep/MC/chaos
// engines lives in the facade (repro/service.go), which keeps the
// dependency arrow pointing one way.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// State is a job's lifecycle state. The machine is:
//
//	queued → running → done | failed | canceled
//	queued → leased → done | failed | canceled  (fleet coordinator mode)
//	queued | running | leased → interrupted (drain/crash; requeued on restart)
//	interrupted → queued                    (restart recovery)
//
// Cache hits are born done. "leased" is "running" with the execution
// delegated to a fleet worker under a time-bounded lease: the job holds
// its admission slot and class-limit slot exactly like a running job,
// but the process doing the work may die — the coordinator then expires
// the lease and re-leases the work from its own pending list, while the
// job stays leased here.
type State string

// The job states.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateLeased      State = "leased"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether a job in this state will never run again
// (an interrupted job is not terminal: a restarted server resumes it).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Sentinel errors surfaced to the API layer.
var (
	// ErrBusy: admission control refused the job; retry later (HTTP
	// 429 + Retry-After).
	ErrBusy = errors.New("jobs: queue full, retry later")
	// ErrDraining: the server is shutting down and admits nothing new.
	ErrDraining = errors.New("jobs: server draining")
	// ErrNotFound: no such job.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrNoRunner: the spec names a kind with no registered runner.
	ErrNoRunner = errors.New("jobs: no runner for kind")
)

// Runner executes one job kind. The returned bytes are the job's result
// document (stored content-addressed, served verbatim by the API).
// Runners must honor ctx: on cancellation they return promptly — with
// (partial, nil) for engines that checkpoint (the manager discards the
// partial result and classifies by the cancellation cause) or with
// ctx's error.
type Runner func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error)

// RunContext is the per-job plumbing a Runner receives.
type RunContext struct {
	// Metrics is the job's private registry; engines instrumented
	// against it feed the job's streaming progress endpoint.
	Metrics *metrics.Registry
	// Trace is the job's private event recorder (scenario/chaos jobs
	// fill it; its Seq stream feeds the progress endpoint too).
	Trace *trace.Recorder
	// Workers is how many execution-pool slots the job may use, worked
	// out at dispatch: the idle slots, its own included, less one for
	// every job still queued, and at least 1. The Monte-Carlo runners
	// spread a spec's replications over that many goroutines when the
	// spec leaves mc.workers at 0. It is 0 outside the manager's pool:
	// fleet workers build their own RunContext.
	Workers int
	// CheckpointPath is where a checkpointing engine persists resumable
	// state ("" when the manager runs without a state dir). If a file
	// already exists there the job is a resume: load it and continue.
	CheckpointPath string
	// Progress publishes a progress note on the job's event stream.
	// Nil-safe via the manager wiring; runners may call it freely.
	Progress func(note string)
	// Telemetry pushes one windowed sample onto the service's telemetry
	// hub; the manager stamps the job ID and kind, so runners fill only
	// the window and payload. Nil-safe via the manager wiring (a
	// manager without a hub wires a no-op).
	Telemetry func(s telemetry.Sample)
}

// Event is one entry of a job's progress stream.
type Event struct {
	JobID string `json:"job"`
	Seq   uint64 `json:"seq"`
	Time  int64  `json:"unix_ms"`
	State State  `json:"state"`
	// Note carries transition detail: the error of a failed job, the
	// "cache hit" marker, checkpoint/resume notices, runner progress.
	Note string `json:"note,omitempty"`
}

// Snapshot is the queryable view of a job.
type Snapshot struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Priority int    `json:"priority"`
	// Tenant names the first submitting tenant, the one charged for the
	// job and allowed to cancel it (empty for anonymous/default
	// submissions, which keeps single-tenant output identical to the
	// pre-tenancy service).
	Tenant string `json:"tenant,omitempty"`
	State  State  `json:"state"`
	Error  string `json:"error,omitempty"`
	// Cached marks a submit served from the result store without
	// recomputation.
	Cached bool `json:"cached,omitempty"`
	// Resumed marks a run continued from a persisted checkpoint.
	Resumed     bool       `json:"resumed,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Worker names the fleet worker currently holding the job's lease
	// (coordinator mode only).
	Worker string `json:"worker,omitempty"`
}

// job is the manager's internal record.
type job struct {
	id       string
	spec     config.Spec
	kind     string
	priority int
	tenant   string // first submitting tenant ("" = anonymous/default)
	// cosubmitters are the other tenants whose submits this record
	// served (cache hits, attaches); they may read the job, and only
	// tenant is charged for it and may cancel it.
	cosubmitters []string
	seq          uint64 // submit order; FIFO tiebreak within a priority

	state State
	// cancelRequested records a Cancel that arrived while the job was
	// claimed off the queue but not yet running; execute finalizes it.
	cancelRequested bool
	errMsg          string
	cached          bool
	resumed         bool
	worker          string // lease holder (coordinator mode)
	submitted       time.Time
	started         time.Time
	finished        time.Time

	reg    *metrics.Registry
	rec    *trace.Recorder
	cancel context.CancelCauseFunc
	done   chan struct{} // closed on terminal or interrupted
}

// submittedBy reports whether tenant submitted the job's spec. Caller
// holds mu.
func (j *job) submittedBy(tenant string) bool {
	return j.tenant == tenant || slices.Contains(j.cosubmitters, tenant)
}

// addSubmitter records a later submit of the job's spec by tenant and
// reports whether tenant is new to the job. Caller holds mu.
func (j *job) addSubmitter(tenant string) bool {
	if j.submittedBy(tenant) {
		return false
	}
	j.cosubmitters = append(j.cosubmitters, tenant)
	return true
}

func (j *job) snapshot() Snapshot {
	s := Snapshot{
		ID:          j.id,
		Kind:        j.kind,
		Priority:    j.priority,
		Tenant:      j.tenant,
		State:       j.state,
		Error:       j.errMsg,
		Cached:      j.cached,
		Resumed:     j.resumed,
		SubmittedAt: j.submitted,
		Worker:      j.worker,
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	return s
}
