package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options configures a Manager.
type Options struct {
	// Store is the content-addressed result cache (required).
	Store *store.Store
	// Dir is the state directory for pending job specs and engine
	// checkpoints; "" disables persistence (jobs die with the process).
	Dir string
	// Runners maps job kinds to executors (see repro.DefaultRunners).
	Runners map[string]Runner
	// Workers sizes the execution pool; 0 selects NumCPU.
	Workers int
	// MaxQueued bounds admitted-but-unfinished jobs; submissions past
	// it fail with ErrBusy. 0 selects 128.
	MaxQueued int
	// ClassLimits caps concurrently *running* jobs per kind (e.g. one
	// chaos campaign at a time); kinds absent from the map share only
	// the global Workers bound.
	ClassLimits map[string]int
	// Metrics, when non-nil, receives the jobs_* service families.
	Metrics *metrics.Registry
	// Telemetry, when non-nil, receives the windowed samples running
	// jobs push through RunContext.Telemetry.
	Telemetry *telemetry.Hub
	// External switches the manager to fleet-coordinator mode: the
	// local execution pool never claims queued jobs; instead the fleet
	// coordinator leases them out through ClaimExternal and settles
	// them through CompleteExternal/FailExternal.
	// Admission, dedup, caching, persistence, and recovery are
	// unchanged — jobs queue even with zero workers live.
	External bool
	// Quota, when non-nil, is consulted at admission with the
	// submitting tenant's current queued and running counts (under the
	// manager lock, after the draining and global MaxQueued checks — so
	// a drain or global-saturation refusal always outranks a quota
	// refusal, and a submission bounced with ErrBusy never charges the
	// tenant's rate bucket or submit accounting). A non-nil return
	// rejects the submission and is surfaced to the caller verbatim,
	// letting the management plane return typed quota errors (429 +
	// Retry-After with a tenant_quota cause) distinct from the global
	// ErrBusy. Startup recovery bypasses it, like the MaxQueued bound.
	Quota func(tenant string, queued, running int) error
	// TenantWeight returns a tenant's weighted-fair-queueing weight
	// (values below 1, and a nil func, mean weight 1). Consulted on
	// every scheduling round, so a live config commit retunes the
	// round without a restart.
	TenantWeight func(tenant string) int
}

const (
	defaultMaxQueued  = 128
	traceCapacity     = 4096 // events in each job's private trace ring
	maxTerminalJobs   = 4096 // completed-job records kept for status queries
	eventBuffer       = 64   // per-subscriber event buffer before drops
	pendingDirName    = "pending"
	checkpointDirName = "checkpoints"
)

// Cancellation causes, distinguished so drain leaves resumable state
// behind while user cancellation cleans up.
var (
	errCanceledByUser = fmt.Errorf("jobs: canceled by request")
	errDrained        = fmt.Errorf("jobs: drained for shutdown")
)

// Manager owns the queue, the execution pool, and the job records.
type Manager struct {
	opt  Options
	pool *sweep.Pool

	mu         sync.Mutex
	jobs       map[string]*job
	queue      *wfq // admitted, waiting; weighted-fair across tenants
	running    map[string]int
	queuedT    map[string]int // queued jobs per tenant (quota accounting)
	runningT   map[string]int // running+leased jobs per tenant
	draining   bool
	recovering bool // startup recovery in flight: admission bound waived
	seq        uint64
	eventSeq   uint64
	subs       map[string][]chan Event

	probeMu  sync.Mutex
	probeAt  time.Time
	probeErr error

	// ownersMu serializes owner-sidecar writes with each other and with
	// unpersist, so the last write of a job's sidecar names every
	// submitter recorded before it and none lands after its removal.
	// Taken before mu, never while holding it.
	ownersMu sync.Mutex

	submitted  *metrics.CounterVec
	completed  *metrics.CounterVec
	cacheHits  *metrics.Counter
	rejected   *metrics.Counter
	queueDepth *metrics.Gauge
	runningG   *metrics.Gauge
	duration   *metrics.Histogram
}

// NewManager builds a manager and recovers any pending jobs persisted
// by a previous process in Options.Dir (they re-enter the queue and
// resume from their checkpoints).
func NewManager(opt Options) (*Manager, error) {
	if opt.Store == nil {
		return nil, fmt.Errorf("jobs: Options.Store is required")
	}
	if opt.MaxQueued <= 0 {
		opt.MaxQueued = defaultMaxQueued
	}
	reg := opt.Metrics
	m := &Manager{
		opt:        opt,
		pool:       sweep.NewPool(opt.Workers),
		jobs:       make(map[string]*job),
		queue:      newWFQ(opt.TenantWeight),
		running:    make(map[string]int),
		queuedT:    make(map[string]int),
		runningT:   make(map[string]int),
		subs:       make(map[string][]chan Event),
		submitted:  reg.CounterVec("jobs_submitted_total", "Jobs admitted, by kind.", "kind"),
		completed:  reg.CounterVec("jobs_completed_total", "Jobs finished, by final state.", "state"),
		cacheHits:  reg.Counter("jobs_cache_hits_total", "Submissions served from the result store without recomputation."),
		rejected:   reg.Counter("jobs_rejected_total", "Submissions refused by admission control."),
		queueDepth: reg.Gauge("jobs_queue_depth", "Admitted jobs waiting for a worker."),
		runningG:   reg.Gauge("jobs_running", "Jobs currently executing."),
		duration:   reg.Histogram("jobs_run_seconds", "Per-job wall time in seconds.", metrics.ExpBuckets(1e-4, 10, 8)),
	}
	// Every freed worker slot re-enters the scheduler, so queued jobs
	// held back by a full pool (or a class limit) start the moment
	// capacity frees.
	m.pool.OnIdle(m.dispatch)
	if opt.Dir != "" {
		for _, sub := range []string{pendingDirName, checkpointDirName} {
			if err := os.MkdirAll(filepath.Join(opt.Dir, sub), 0o755); err != nil {
				return nil, fmt.Errorf("jobs: %w", err)
			}
		}
		if err := m.recover(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// recover requeues every pending spec left behind by a crashed or
// drained predecessor. Jobs with a checkpoint resume from it. Recovery
// waives the MaxQueued admission bound — a restart with a lower bound
// than the persisted backlog must still come up — and a spec this
// process can no longer admit (e.g. its kind lost its runner) is
// skipped, left on disk for a later process rather than wedging startup.
func (m *Manager) recover() error {
	entries, err := os.ReadDir(filepath.Join(m.opt.Dir, pendingDirName))
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	m.mu.Lock()
	m.recovering = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.recovering = false
		m.mu.Unlock()
	}()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(m.opt.Dir, pendingDirName, e.Name())
		spec, err := config.LoadSpec(path)
		if err != nil {
			// A corrupt pending spec must not wedge startup; drop it.
			os.Remove(path)
			continue
		}
		// The owner sidecar restores the submitters: the owner, so quota
		// accounting and fair queueing survive a restart, and the
		// co-submitters, so they keep read access.
		submitters := []string{""}
		id := strings.TrimSuffix(e.Name(), ".json")
		if data, err := os.ReadFile(m.ownerPath(id)); err == nil {
			submitters = strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		}
		snap, err := m.submit(spec, submitters)
		if err != nil {
			continue
		}
		if j := m.get(snap.ID); j != nil {
			m.mu.Lock()
			j.resumed = true
			m.mu.Unlock()
		}
	}
	// Sweep orphan owner sidecars: a crash between the sidecar write and
	// the spec rename (or a corrupt spec dropped above) leaves a .owner
	// with no .json, which no job will ever reclaim.
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".owner") {
			continue
		}
		id := strings.TrimSuffix(e.Name(), ".owner")
		if _, err := os.Stat(m.pendingPath(id)); os.IsNotExist(err) {
			os.Remove(filepath.Join(m.opt.Dir, pendingDirName, e.Name()))
		}
	}
	return nil
}

// Submit admits an anonymous (default-tenant) job; see SubmitAs.
func (m *Manager) Submit(spec config.Spec) (Snapshot, error) {
	return m.SubmitAs("", spec)
}

// SubmitAs admits a job on behalf of a tenant (or dedups it against the
// queue, the running set, and the result store). The returned
// snapshot's State tells the caller what happened: StateDone with
// Cached set is a cache hit, anything else is a live job. ErrBusy,
// ErrDraining, and whatever Options.Quota returns are admission
// refusals. Deduplicated and cached submissions never charge the
// tenant's quota — an idempotent retry is free.
func (m *Manager) SubmitAs(tenant string, spec config.Spec) (Snapshot, error) {
	return m.submit(spec, []string{tenant})
}

// submit is SubmitAs on behalf of one or more submitters: the first is
// the tenant charged for a new job, and every one of them may read it.
// Recovery passes a pending job's persisted submitters this way.
func (m *Manager) submit(spec config.Spec, submitters []string) (Snapshot, error) {
	tenant := submitters[0]
	id, err := spec.JobID()
	if err != nil {
		return Snapshot{}, err
	}
	if _, ok := m.opt.Runners[spec.Kind]; !ok {
		return Snapshot{}, fmt.Errorf("%w %q", ErrNoRunner, spec.Kind)
	}

	m.mu.Lock()
	if j, ok := m.jobs[id]; ok && !j.state.Terminal() {
		// Identical spec already queued or running: attach, don't rerun.
		added := false
		for _, t := range submitters {
			added = j.addSubmitter(t) || added
		}
		snap := j.snapshot()
		m.mu.Unlock()
		if added {
			// A new reader keeps its access across a restart.
			if err := m.writeOwners(j); err != nil {
				m.publish(j, "warning: submitters not persisted: "+err.Error())
			}
		}
		return snap, nil
	}
	if m.opt.Store.Has(id) {
		// Content-addressed hit: the computation already happened —
		// possibly in a previous process. Serve the stored result.
		j := m.cachedJob(id, spec, tenant)
		for _, t := range submitters[1:] {
			j.addSubmitter(t)
		}
		snap := j.snapshot()
		m.cacheHits.Inc()
		recovering := m.recovering
		m.mu.Unlock()
		// A pending spec from a crashed run whose result did land is
		// satisfied; don't leave it to requeue again. Only recovery
		// meets one: a live hit has no files to remove.
		if recovering {
			m.unpersist(id)
		}
		return snap, nil
	}
	if m.draining {
		m.mu.Unlock()
		return Snapshot{}, ErrDraining
	}
	// Global admission first: a queue-full refusal must not consume the
	// tenant's rate-bucket token or count as an admitted submit.
	if !m.recovering && m.admittedLocked() >= m.opt.MaxQueued {
		m.rejected.Inc()
		m.mu.Unlock()
		return Snapshot{}, ErrBusy
	}
	if !m.recovering && m.opt.Quota != nil {
		if qerr := m.opt.Quota(tenant, m.queuedT[tenant], m.runningT[tenant]); qerr != nil {
			m.rejected.Inc()
			m.mu.Unlock()
			return Snapshot{}, qerr
		}
	}

	m.seq++
	j := &job{
		id:        id,
		spec:      spec,
		kind:      spec.Kind,
		priority:  spec.Priority,
		tenant:    tenant,
		seq:       m.seq,
		state:     StateQueued,
		submitted: time.Now(),
		reg:       metrics.NewRegistry(),
		rec:       trace.New(traceCapacity),
		done:      make(chan struct{}),
	}
	for _, t := range submitters[1:] {
		j.addSubmitter(t)
	}
	m.jobs[id] = j
	m.queue.push(j)
	m.queuedT[tenant]++
	m.pruneTerminalLocked()
	m.submitted.With(j.kind).Inc()
	m.queueDepth.Set(float64(m.queue.len()))
	snap := j.snapshot()
	m.publishLocked(j, "")
	m.mu.Unlock()

	if err := m.persistSpec(j); err != nil {
		// Persistence failure degrades crash safety, not service.
		m.publish(j, "warning: spec not persisted: "+err.Error())
	}
	m.dispatch()
	return snap, nil
}

// admittedLocked counts jobs that hold an admission slot: queued or
// running. Terminal and interrupted jobs do not.
func (m *Manager) admittedLocked() int {
	n := m.queue.len()
	for _, c := range m.running {
		n += c
	}
	return n
}

// decTenantLocked releases one unit of a tenant's count map, dropping
// zeroed entries so tenant churn cannot grow the maps without bound.
func decTenantLocked(counts map[string]int, tenant string) {
	if counts[tenant] <= 1 {
		delete(counts, tenant)
		return
	}
	counts[tenant]--
}

// ApplyLimits swaps the live admission bound and per-kind class limits
// — the config-commit path retuning a running scheduler without a
// restart. maxQueued values below 1 keep the current bound; classLimits
// replaces the map wholesale (nil clears every per-kind cap). Loosened
// limits take effect immediately via a dispatch round.
func (m *Manager) ApplyLimits(maxQueued int, classLimits map[string]int) {
	m.mu.Lock()
	if maxQueued >= 1 {
		m.opt.MaxQueued = maxQueued
	}
	m.opt.ClassLimits = classLimits
	m.mu.Unlock()
	m.dispatch()
}

// cachedJob materializes a done-from-cache job record for a submit by
// tenant. Caller holds mu.
func (m *Manager) cachedJob(id string, spec config.Spec, tenant string) *job {
	j, ok := m.jobs[id]
	if !ok {
		m.seq++
		j = &job{
			id: id, spec: spec, kind: spec.Kind, priority: spec.Priority,
			tenant: tenant, seq: m.seq, submitted: time.Now(),
			reg: metrics.NewRegistry(), rec: trace.New(1),
			done: make(chan struct{}),
		}
		m.jobs[id] = j
		close(j.done)
	}
	if !j.state.Terminal() {
		j.state = StateDone
		j.finished = time.Now()
	}
	j.addSubmitter(tenant)
	j.cached = true
	m.publishLocked(j, "cache hit")
	return j
}

// eligibleLocked reports whether a queued job may start now: its kind
// must be under its class limit. Caller holds mu.
func (m *Manager) eligibleLocked(j *job) bool {
	limit, ok := m.opt.ClassLimits[j.kind]
	return !ok || m.running[j.kind] < limit
}

// dispatch starts as many eligible queued jobs as the pool accepts.
// Scheduling order: highest priority class first; within a class,
// deficit-weighted round robin across tenants (FIFO within a tenant),
// which degenerates to plain FIFO-within-priority when a single tenant
// is submitting. Kinds at their class limit are skipped.
func (m *Manager) dispatch() {
	if m.opt.External {
		// Coordinator mode: execution is leased to fleet workers, never
		// run in-process.
		return
	}
	for {
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			return
		}
		// Check pool capacity before popping: a pop consumes the DRR
		// round's credit and cursor position, so popping a job only to
		// roll it back on a full pool would skew the fair-queueing state
		// against whichever tenant was next. All TryGo calls are
		// serialized under m.mu, so a free slot seen here cannot be
		// stolen before the TryGo below.
		if m.pool.InFlight() >= m.pool.Workers() {
			m.mu.Unlock()
			return
		}
		j := m.queue.pop(m.eligibleLocked)
		if j == nil {
			m.mu.Unlock()
			return
		}
		r := m.opt.Runners[j.kind]
		// Claim the slot and hand off to the pool under one critical
		// section: the pool's OnIdle hook re-enters dispatch after every
		// slot release, and it must observe either the claim or the
		// rollback — never the gap between them — or a job re-queued
		// after a failed TryGo could strand with no dispatcher left to
		// see it. (Drain holds this same lock to set draining, so a
		// failed TryGo here always means a full pool, not a closed one.)
		decTenantLocked(m.queuedT, j.tenant)
		m.running[j.kind]++
		m.runningT[j.tenant]++
		workers := m.lendableSlotsLocked()
		ok := m.pool.TryGo(func() { m.execute(j, r, workers) })
		if !ok {
			m.running[j.kind]--
			decTenantLocked(m.runningT, j.tenant)
			m.queue.push(j)
			m.queuedT[j.tenant]++
		}
		m.queueDepth.Set(float64(m.queue.len()))
		m.mu.Unlock()
		if !ok {
			return
		}
	}
}

// lendableSlotsLocked is how many pool slots a job dispatched now may
// use: every idle slot, its own included, less one for each job still
// queued; at least 1. Caller holds mu.
func (m *Manager) lendableSlotsLocked() int {
	return max(m.pool.Workers()-m.pool.InFlight()-m.queue.len(), 1)
}

// execute runs one job to a terminal (or interrupted) state on the
// given number of pool slots (RunContext.Workers).
func (m *Manager) execute(j *job, runner Runner, workers int) {
	ctx, cancel := context.WithCancelCause(context.Background())
	m.mu.Lock()
	if j.cancelRequested {
		// Cancel raced the dispatch/execute handoff and left the
		// finalization to us: settle the job without running it. This
		// outranks drain — a user-canceled job must not resurrect on
		// restart, so its persisted state is cleaned up too.
		m.running[j.kind]--
		decTenantLocked(m.runningT, j.tenant)
		j.state = StateCanceled
		j.finished = time.Now()
		m.completed.With(string(StateCanceled)).Inc()
		m.publishLocked(j, "")
		close(j.done)
		m.mu.Unlock()
		cancel(nil)
		m.unpersist(j.id)
		return
	}
	if m.draining {
		// Drain raced the dispatch: leave the job for the next process.
		m.running[j.kind]--
		decTenantLocked(m.runningT, j.tenant)
		j.state = StateInterrupted
		m.publishLocked(j, "interrupted before start")
		close(j.done)
		m.mu.Unlock()
		cancel(nil)
		return
	}
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	m.runningG.Add(1)
	m.publishLocked(j, "")
	m.mu.Unlock()

	rc := RunContext{
		Metrics:        j.reg,
		Trace:          j.rec,
		Workers:        workers,
		CheckpointPath: m.checkpointPath(j.id),
		Progress:       func(note string) { m.publish(j, note) },
		Telemetry: func(s telemetry.Sample) {
			// Stamp the producer's identity; Hub.Ingest is nil-safe, so
			// a manager without a hub makes this a cheap no-op.
			s.Job, s.Kind = j.id, j.kind
			m.opt.Telemetry.Ingest(s)
		},
	}
	if rc.CheckpointPath != "" {
		if _, err := os.Stat(rc.CheckpointPath); err == nil {
			m.mu.Lock()
			j.resumed = true
			m.mu.Unlock()
			m.publish(j, "resuming from checkpoint")
		}
	}

	out, err := func() (out json.RawMessage, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("jobs: runner panicked: %v", r)
			}
		}()
		return runner(ctx, rc, j.spec)
	}()

	// Classify the outcome. Engines that checkpoint return (partial,
	// nil) on cancellation, so the context verdict outranks theirs.
	cause := context.Cause(ctx)
	var final State
	var note string
	switch {
	case cause == errDrained:
		final, note = StateInterrupted, "checkpointed for drain"
	case cause == errCanceledByUser:
		final, note = StateCanceled, ""
	case err != nil:
		final, note = StateFailed, err.Error()
	default:
		if perr := m.opt.Store.Put(j.id, out); perr != nil {
			final, note = StateFailed, "storing result: "+perr.Error()
		} else {
			final = StateDone
		}
	}

	m.mu.Lock()
	m.running[j.kind]--
	decTenantLocked(m.runningT, j.tenant)
	m.runningG.Add(-1)
	j.state = final
	j.errMsg = ""
	if final == StateFailed {
		j.errMsg = note
	}
	j.finished = time.Now()
	m.duration.Observe(j.finished.Sub(j.started).Seconds())
	if final.Terminal() {
		m.completed.With(string(final)).Inc()
	}
	m.publishLocked(j, note)
	close(j.done)
	m.mu.Unlock()
	cancel(nil)

	if final.Terminal() {
		// The job will never run again: its pending spec and
		// checkpoint are garbage now.
		m.unpersist(j.id)
	}
	// The next dispatch happens via the pool's OnIdle hook once this
	// worker's slot is actually released.
}

// Cancel stops a queued or running job. Canceling a terminal job is a
// no-op; an unknown ID reports ErrNotFound.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	switch j.state {
	case StateQueued:
		if !m.queue.remove(j) {
			// Dispatch already claimed the job off the queue but execute
			// hasn't marked it running yet. Finalizing here would race
			// execute's own close(j.done); record the intent instead and
			// let execute settle the job before starting the runner.
			j.cancelRequested = true
			m.mu.Unlock()
			return nil
		}
		decTenantLocked(m.queuedT, j.tenant)
		j.state = StateCanceled
		j.finished = time.Now()
		m.queueDepth.Set(float64(m.queue.len()))
		m.completed.With(string(StateCanceled)).Inc()
		m.publishLocked(j, "")
		close(j.done)
		m.mu.Unlock()
		m.unpersist(id)
		return nil
	case StateRunning:
		cancel := j.cancel
		m.mu.Unlock()
		if cancel != nil {
			cancel(errCanceledByUser)
		}
		return nil
	case StateLeased:
		// No local goroutine to signal: settle the record here; the
		// worker's next renew/complete finds the lease gone (the
		// coordinator checks JobActive) and abandons the run.
		m.running[j.kind]--
		decTenantLocked(m.runningT, j.tenant)
		m.runningG.Add(-1)
		j.state = StateCanceled
		j.finished = time.Now()
		m.completed.With(string(StateCanceled)).Inc()
		m.publishLocked(j, "canceled while leased to "+j.worker)
		close(j.done)
		m.mu.Unlock()
		m.unpersist(id)
		return nil
	default:
		m.mu.Unlock()
		return nil
	}
}

// Get returns a job's snapshot.
func (m *Manager) Get(id string) (Snapshot, error) {
	j := m.get(id)
	if j == nil {
		return Snapshot{}, ErrNotFound
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.snapshot(), nil
}

// SubmittedBy reports whether tenant submitted the spec of job id: as
// its first submitter, or later through a submit the same job record
// served (a cache hit or an attach to the queued or running job).
func (m *Manager) SubmittedBy(id, tenant string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return ok && j.submittedBy(tenant)
}

func (m *Manager) get(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// Result returns the stored result document of a done job.
func (m *Manager) Result(id string) (json.RawMessage, error) {
	return m.opt.Store.Get(id)
}

// Registry returns the job's private metrics registry (nil for unknown
// jobs) — the feed behind the streaming progress endpoint.
func (m *Manager) Registry(id string) *metrics.Registry {
	if j := m.get(id); j != nil {
		return j.reg
	}
	return nil
}

// Trace returns the job's private trace recorder (nil for unknown jobs).
func (m *Manager) Trace(id string) *trace.Recorder {
	if j := m.get(id); j != nil {
		return j.rec
	}
	return nil
}

// List returns every known job, newest submission first.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SubmittedAt.After(out[b].SubmittedAt) })
	return out
}

// QueueDepth returns the number of admitted jobs holding slots (the
// admission-control measure).
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.admittedLocked()
}

// Running returns the number of jobs currently executing (the /healthz
// readiness measure alongside QueueDepth).
func (m *Manager) Running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.running {
		n += c
	}
	return n
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Subscribe attaches a progress-event listener to a job. Events are
// delivered best-effort: a subscriber that stops reading loses events
// rather than blocking the manager. The returned cancel must be called
// to release the channel.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Event, eventBuffer)
	m.subs[id] = append(m.subs[id], ch)
	// Prime with the current state so late subscribers see where the
	// job stands without racing the next transition.
	m.eventSeq++
	ch <- Event{JobID: id, Seq: m.eventSeq, Time: time.Now().UnixMilli(), State: j.state}
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		subs := m.subs[id]
		for i, c := range subs {
			if c == ch {
				m.subs[id] = append(subs[:i], subs[i+1:]...)
				break
			}
		}
		if len(m.subs[id]) == 0 {
			delete(m.subs, id)
		}
	}
	return ch, cancel, nil
}

func (m *Manager) publish(j *job, note string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.publishLocked(j, note)
}

// publishLocked fans an event out to the job's subscribers. Caller
// holds mu.
func (m *Manager) publishLocked(j *job, note string) {
	subs := m.subs[j.id]
	if len(subs) == 0 {
		return
	}
	m.eventSeq++
	ev := Event{JobID: j.id, Seq: m.eventSeq, Time: time.Now().UnixMilli(), State: j.state, Note: note}
	for _, ch := range subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall the manager
		}
	}
}

// Drain stops admission, cancels running jobs with the drain cause (so
// checkpointing engines persist resumable state), and waits for them to
// come to rest or ctx to expire. Queued jobs stay persisted and
// interrupted; a restarted manager requeues everything.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	var waiting []*job
	for _, j := range m.queue.clear() {
		j.state = StateInterrupted
		m.publishLocked(j, "interrupted by drain")
		close(j.done)
	}
	m.queuedT = make(map[string]int)
	m.queueDepth.Set(0)
	for _, j := range m.jobs {
		switch j.state {
		case StateRunning:
			waiting = append(waiting, j)
			if j.cancel != nil {
				j.cancel(errDrained)
			}
		case StateLeased:
			// The worker holding the lease outlives this process, but the
			// lease table does not: mark the job interrupted (its pending
			// spec and last shipped checkpoint persist) so a restarted
			// coordinator requeues and re-leases it.
			m.running[j.kind]--
			decTenantLocked(m.runningT, j.tenant)
			m.runningG.Add(-1)
			j.state = StateInterrupted
			m.publishLocked(j, "interrupted by drain (lease abandoned)")
			close(j.done)
		}
	}
	m.mu.Unlock()

	for _, j := range waiting {
		select {
		case <-j.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	m.pool.Close()
	return nil
}

// pruneTerminalLocked bounds the completed-job history. Caller holds mu.
func (m *Manager) pruneTerminalLocked() {
	if len(m.jobs) <= maxTerminalJobs {
		return
	}
	type cand struct {
		id  string
		seq uint64
	}
	var cands []cand
	for id, j := range m.jobs {
		if j.state.Terminal() {
			cands = append(cands, cand{id, j.seq})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].seq < cands[b].seq })
	excess := len(m.jobs) - maxTerminalJobs
	for i := 0; i < excess && i < len(cands); i++ {
		delete(m.jobs, cands[i].id)
	}
}

// --- persistence ---

func (m *Manager) pendingPath(id string) string {
	if m.opt.Dir == "" {
		return ""
	}
	return filepath.Join(m.opt.Dir, pendingDirName, id+".json")
}

func (m *Manager) checkpointPath(id string) string {
	if m.opt.Dir == "" {
		return ""
	}
	return filepath.Join(m.opt.Dir, checkpointDirName, id+".ckpt")
}

// ownerPath is the sidecar naming the tenants that submitted a pending
// job, one per line: the owner first (an empty line for the anonymous
// tenant), then every co-submitter. A one-line sidecar names the owner
// alone. Kept out of the spec file itself so the spec document stays a
// valid config.Spec (and older pending files keep loading).
func (m *Manager) ownerPath(id string) string {
	if m.opt.Dir == "" {
		return ""
	}
	return filepath.Join(m.opt.Dir, pendingDirName, id+".owner")
}

// persistSpec writes the admitted spec and its owner sidecar so a
// crashed or drained server can requeue the job with its attribution
// intact. Both files land via temp + rename, and the sidecar lands
// before the spec: recovery keys off the spec file, so a crash between
// the two leaves at worst an orphan sidecar (swept by recover), never a
// recovered job silently re-attributed to the anonymous tenant or a
// torn partial tenant name.
func (m *Manager) persistSpec(j *job) error {
	path := m.pendingPath(j.id)
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(j.spec, "", "  ")
	if err != nil {
		return err
	}
	m.ownersMu.Lock()
	defer m.ownersMu.Unlock()
	if live, err := m.writeOwnersLocked(j); !live || err != nil {
		return err
	}
	return atomicWriteFile(path, append(data, '\n'))
}

// writeOwners rewrites j's owner sidecar after an attach added a
// submitter.
func (m *Manager) writeOwners(j *job) error {
	m.ownersMu.Lock()
	defer m.ownersMu.Unlock()
	_, err := m.writeOwnersLocked(j)
	return err
}

// writeOwnersLocked (re)writes j's owner sidecar from its current
// submitters, atomically, and reports whether j is still live: the
// job under its ID and not terminal. A settled or replaced job writes
// nothing, so a late write can neither leave an orphan sidecar behind
// unpersist nor overwrite a resubmitted job's sidecar. Caller holds
// ownersMu, which unpersist takes too.
func (m *Manager) writeOwnersLocked(j *job) (bool, error) {
	path := m.ownerPath(j.id)
	m.mu.Lock()
	live := m.jobs[j.id] == j && !j.state.Terminal()
	owners := append([]string{j.tenant}, j.cosubmitters...)
	m.mu.Unlock()
	if !live || path == "" {
		return live, nil
	}
	if len(owners) == 1 && owners[0] == "" {
		// A stale sidecar from an earlier owner of this content-addressed
		// ID must not re-attribute an anonymous resubmission on recovery.
		os.Remove(path)
		return true, nil
	}
	return true, atomicWriteFile(path, []byte(strings.Join(owners, "\n")+"\n"))
}

// atomicWriteFile is temp + rename in the target's directory.
func atomicWriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".spec-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// unpersist removes a terminal job's pending spec, owner sidecar, and
// checkpoint.
func (m *Manager) unpersist(id string) {
	if m.opt.Dir == "" {
		return
	}
	m.ownersMu.Lock()
	defer m.ownersMu.Unlock()
	os.Remove(m.pendingPath(id))
	os.Remove(m.ownerPath(id))
	os.Remove(m.checkpointPath(id))
}
