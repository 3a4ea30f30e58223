// Package fleet is the dependability layer of the coordinator/worker
// split: time-bounded leases over jobs (or deterministic shards of
// jobs), heartbeat renewal, expiry-driven reclaim, and shard-result
// merge. It applies the DRA paper's discipline to drad itself — spare
// capacity (other workers) absorbs a unit failure (a killed worker)
// without losing work: an expired lease sends the shard or job back to
// the queue, the re-dispatched run is deterministic (shards) or resumes
// from the last heartbeat's checkpoint (whole jobs), and the merged
// result is bit-identical to an uninterrupted single-process run.
//
// The coordinator side (this file) owns worker registration/health, the
// lease table, and shard bookkeeping; it talks to the scheduler through
// the narrow Backend interface (implemented by jobs.Manager in
// coordinator mode). The worker side (worker.go) claims assignments
// over HTTP, renews by heartbeat — shipping engine checkpoints with
// each renewal — and completes or abandons.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Defaults. LeaseTTL is deliberately several heartbeats: one lost
// heartbeat must not requeue a healthy worker's shard.
const (
	DefaultLeaseTTL = 10 * time.Second
	wholeJob        = -1 // lease.shard for an unsharded claim
	maxTombstones   = 1024
)

// ErrLeaseExpired is returned to a worker whose lease is no longer
// valid: it expired and was reclaimed, the job was canceled, or the
// result arrived after a re-dispatch. The worker must abandon the run;
// the work is not lost — it was already requeued or completed by
// another worker.
var ErrLeaseExpired = errors.New("fleet: lease expired")

// ShardSpec is one deterministic slice of a job: replications [Lo, Hi)
// of a Monte-Carlo run, or cells [Lo, Hi) of a sweep grid. The split is
// safe because replication streams derive only from (seed, index) —
// see montecarlo.TrialStream — so a shard re-run after a worker death
// reproduces its outcomes exactly.
type ShardSpec struct {
	Index int    `json:"index"`
	Count int    `json:"count"`
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
}

// Planner decides how to shard a job across a fleet; nil or a plan of
// ≤1 shard claims the job whole. workers is the current live-worker
// count (a hint — correctness cannot depend on it, since any contiguous
// partition merges identically).
type Planner func(spec config.Spec, workers int) []ShardSpec

// Merger folds per-shard result payloads (in shard-index order) into
// the job's final result document. It must reproduce the standalone
// runner's document byte-for-byte.
type Merger func(spec config.Spec, parts []json.RawMessage) (json.RawMessage, error)

// Backend is the scheduler surface the coordinator drives, implemented
// by jobs.Manager in coordinator mode. Narrow by design: lease edge
// cases are tested against a fake.
type Backend interface {
	ClaimExternal(worker string) (jobs.ExternalJob, bool)
	CompleteExternal(id string, result json.RawMessage) error
	FailExternal(id, msg string) error
	RequeueExternal(id, note string) error
	JobActive(id string) bool
	PublishExternal(id, note string)
	SaveExternalCheckpoint(id string, data []byte) error
}

// --- wire types (worker ↔ coordinator HTTP protocol) ---

// RegisterRequest announces a worker; idempotent.
type RegisterRequest struct {
	Worker string `json:"worker"`
}

// RegisterResponse hands the worker the fleet timing parameters.
type RegisterResponse struct {
	LeaseTTLMs  int64 `json:"lease_ttl_ms"`
	HeartbeatMs int64 `json:"heartbeat_ms"`
}

// ClaimRequest asks for work.
type ClaimRequest struct {
	Worker string `json:"worker"`
}

// Assignment is one granted lease. Checkpoint, when non-empty, is the
// last persisted engine checkpoint of a previously interrupted run of
// this job — the worker seeds its local checkpoint file with it and the
// engine resumes bit-identically.
type Assignment struct {
	Lease       string          `json:"lease"`
	Job         string          `json:"job"`
	Spec        json.RawMessage `json:"spec"`
	Shard       *ShardSpec      `json:"shard,omitempty"`
	Checkpoint  []byte          `json:"checkpoint,omitempty"`
	LeaseTTLMs  int64           `json:"lease_ttl_ms"`
	HeartbeatMs int64           `json:"heartbeat_ms"`
}

// RenewRequest extends a lease (heartbeat). Checkpoint, when non-empty,
// is the engine's latest persisted state; the coordinator stores it so
// a later lease expiry re-dispatches from there rather than from
// scratch. Abandon releases the lease gracefully (worker drain) —
// the shard or job requeues immediately instead of waiting out the TTL.
type RenewRequest struct {
	Worker     string `json:"worker"`
	Lease      string `json:"lease"`
	Checkpoint []byte `json:"checkpoint,omitempty"`
	Abandon    bool   `json:"abandon,omitempty"`
	Note       string `json:"note,omitempty"`
}

// CompleteRequest delivers a finished lease's result (or error).
type CompleteRequest struct {
	Worker string          `json:"worker"`
	Lease  string          `json:"lease"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// --- coordinator ---

// Options configures a Coordinator.
type Options struct {
	Backend Backend
	// Planner shards claimable jobs; nil claims everything whole.
	Planner Planner
	// Merger folds shard results; required when Planner can return >1
	// shard.
	Merger Merger
	// LeaseTTL bounds how long a silent worker keeps a lease; 0 selects
	// DefaultLeaseTTL. Heartbeat is the renewal/poll cadence workers are
	// told to use; 0 selects LeaseTTL/3.
	LeaseTTL  time.Duration
	Heartbeat time.Duration
	// Now is the clock (injectable for lease-edge tests); nil uses
	// time.Now.
	Now func() time.Time
	// Metrics receives the fleet_* families.
	Metrics *metrics.Registry
	// Telemetry, when non-nil, receives fleet-health samples (job id
	// "fleet") so `dractl top` shows the fleet next to the jobs.
	Telemetry *telemetry.Hub
}

func (o Options) leaseTTL() time.Duration {
	if o.LeaseTTL > 0 {
		return o.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (o Options) heartbeat() time.Duration {
	if o.Heartbeat > 0 {
		return o.Heartbeat
	}
	return o.leaseTTL() / 3
}

type workerState struct {
	id       string
	lastSeen time.Time
}

type lease struct {
	id      string
	worker  string
	jobID   string
	shard   int // wholeJob or a plan index
	expires time.Time
}

// tombstone remembers where an expired lease pointed, so a late
// completion can be verified instead of silently double-counted.
type tombstone struct {
	jobID string
	shard int
}

// fleetJob is the coordinator's bookkeeping for one leased-out job.
type fleetJob struct {
	id      string
	spec    config.Spec
	specRaw json.RawMessage
	// plan is nil for whole-job claims; then the single unit of work is
	// shard index wholeJob.
	plan     []ShardSpec
	pending  []int // units awaiting (re)claim, ascending
	leased   map[int]string
	results  map[int]json.RawMessage
	requeues int
}

func (f *fleetJob) units() int {
	if f.plan == nil {
		return 1
	}
	return len(f.plan)
}

// Coordinator owns worker registration/health, the lease table, and
// shard bookkeeping.
type Coordinator struct {
	opt Options

	mu        sync.Mutex
	workers   map[string]*workerState
	leases    map[string]*lease
	jobs      map[string]*fleetJob
	tombs     map[string]tombstone
	tombOrder []string
	seq       uint64
	tick      uint64

	// Cumulative counts mirrored to metrics (counters are write-only).
	nExpirations uint64
	nRequeues    uint64
	nLate        uint64
	lastSampled  [4]uint64 // change detector for telemetry pushes

	workersLive  *metrics.Gauge
	leasesActive *metrics.Gauge
	expirations  *metrics.Counter
	requeues     *metrics.Counter
	lateResults  *metrics.CounterVec
	claims       *metrics.Counter
}

// New builds a Coordinator.
func New(opt Options) *Coordinator {
	if opt.Backend == nil {
		panic("fleet: Options.Backend is required")
	}
	reg := opt.Metrics
	return &Coordinator{
		opt:          opt,
		workers:      make(map[string]*workerState),
		leases:       make(map[string]*lease),
		jobs:         make(map[string]*fleetJob),
		tombs:        make(map[string]tombstone),
		workersLive:  reg.Gauge("fleet_workers_live", "Workers seen within the lease TTL."),
		leasesActive: reg.Gauge("fleet_leases_active", "Leases currently granted and unexpired."),
		expirations:  reg.Counter("fleet_lease_expirations_total", "Leases reclaimed because the holder stopped heartbeating."),
		requeues:     reg.Counter("fleet_requeues_total", "Work units sent back to the queue after lease expiry or abandonment."),
		lateResults:  reg.CounterVec("fleet_late_results_total", "Results arriving after their lease expired, by verdict.", "verdict"),
		claims:       reg.Counter("fleet_claims_total", "Leases granted to workers."),
	}
}

func (c *Coordinator) now() time.Time {
	if c.opt.Now != nil {
		return c.opt.Now()
	}
	return time.Now()
}

// LeaseTTL returns the configured lease TTL.
func (c *Coordinator) LeaseTTL() time.Duration { return c.opt.leaseTTL() }

// Heartbeat returns the renewal cadence workers are told to use.
func (c *Coordinator) Heartbeat() time.Duration { return c.opt.heartbeat() }

// Register records a worker (idempotent) and returns fleet timing.
func (c *Coordinator) Register(worker string) RegisterResponse {
	c.mu.Lock()
	c.touchLocked(worker)
	c.publishGaugesLocked()
	c.mu.Unlock()
	return RegisterResponse{
		LeaseTTLMs:  c.opt.leaseTTL().Milliseconds(),
		HeartbeatMs: c.opt.heartbeat().Milliseconds(),
	}
}

func (c *Coordinator) touchLocked(worker string) {
	w := c.workers[worker]
	if w == nil {
		w = &workerState{id: worker}
		c.workers[worker] = w
	}
	w.lastSeen = c.now()
}

// liveLocked counts workers seen within the lease TTL: a worker that
// misses every heartbeat for a whole TTL is treated like a failed unit.
func (c *Coordinator) liveLocked() int {
	cutoff := c.now().Add(-c.opt.leaseTTL())
	n := 0
	for _, w := range c.workers {
		if !w.lastSeen.Before(cutoff) {
			n++
		}
	}
	return n
}

// WorkersLive reports the current live-worker count (healthz).
func (c *Coordinator) WorkersLive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLocked()
}

// LeasesActive reports the number of granted, unexpired leases.
func (c *Coordinator) LeasesActive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

// Claim hands the worker one unit of work, or nil when none is
// claimable. Re-claims of requeued shards take precedence over new
// jobs, so an interrupted job finishes before fresh work starts.
func (c *Coordinator) Claim(worker string) (*Assignment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(worker)

	// 1. A pending unit of an already-claimed job (requeued after an
	// expiry, or the not-yet-granted shards of a fresh plan).
	for _, id := range c.jobIDsLocked() {
		f := c.jobs[id]
		if len(f.pending) == 0 {
			continue
		}
		if !c.opt.Backend.JobActive(f.id) {
			// Canceled or settled behind our back: drop the bookkeeping.
			c.dropJobLocked(f, "")
			continue
		}
		return c.grantLocked(worker, f), nil
	}

	// 2. A fresh job from the scheduler.
	ext, ok := c.opt.Backend.ClaimExternal(worker)
	if !ok {
		c.publishGaugesLocked()
		return nil, nil
	}
	f := &fleetJob{
		id:      ext.ID,
		spec:    ext.Spec,
		leased:  make(map[int]string),
		results: make(map[int]json.RawMessage),
	}
	raw, err := json.Marshal(ext.Spec)
	if err != nil {
		c.opt.Backend.FailExternal(ext.ID, "fleet: encoding spec: "+err.Error())
		return nil, fmt.Errorf("fleet: encoding spec: %w", err)
	}
	f.specRaw = raw
	// A job with a checkpoint must continue whole — the checkpoint is
	// the recovery state, and sharding would discard it.
	if c.opt.Planner != nil && len(ext.Checkpoint) == 0 {
		if plan := c.opt.Planner(ext.Spec, max(1, c.liveLocked())); len(plan) > 1 {
			f.plan = plan
			for i := range plan {
				f.pending = append(f.pending, i)
			}
		}
	}
	if f.plan == nil {
		f.pending = []int{wholeJob}
	}
	c.jobs[f.id] = f
	a := c.grantLocked(worker, f)
	a.Checkpoint = ext.Checkpoint
	return a, nil
}

// jobIDsLocked returns job IDs in deterministic (insertion-id) order.
func (c *Coordinator) jobIDsLocked() []string {
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// grantLocked pops the lowest pending unit of f and leases it to
// worker. Caller holds mu and has verified len(f.pending) > 0.
func (c *Coordinator) grantLocked(worker string, f *fleetJob) *Assignment {
	unit := f.pending[0]
	f.pending = f.pending[1:]
	c.seq++
	l := &lease{
		id:      fmt.Sprintf("L%06d", c.seq),
		worker:  worker,
		jobID:   f.id,
		shard:   unit,
		expires: c.now().Add(c.opt.leaseTTL()),
	}
	c.leases[l.id] = l
	f.leased[unit] = l.id
	c.claims.Inc()
	a := &Assignment{
		Lease:       l.id,
		Job:         f.id,
		Spec:        f.specRaw,
		LeaseTTLMs:  c.opt.leaseTTL().Milliseconds(),
		HeartbeatMs: c.opt.heartbeat().Milliseconds(),
	}
	if unit != wholeJob {
		s := f.plan[unit]
		a.Shard = &s
		c.opt.Backend.PublishExternal(f.id, fmt.Sprintf("shard %d/%d leased to %s", unit+1, len(f.plan), worker))
	}
	c.publishGaugesLocked()
	return a
}

// Renew extends (or, with Abandon, releases) a lease. A non-empty
// checkpoint is persisted through the backend so the job's recovery
// state survives both worker and coordinator deaths.
func (c *Coordinator) Renew(req RenewRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(req.Worker)
	l, ok := c.leases[req.Lease]
	if !ok {
		return ErrLeaseExpired
	}
	f := c.jobs[l.jobID]
	if f == nil || !c.opt.Backend.JobActive(l.jobID) {
		// Canceled (or settled) underneath the lease: tear down.
		if f != nil {
			c.dropJobLocked(f, "")
		} else {
			delete(c.leases, req.Lease)
		}
		c.publishGaugesLocked()
		return ErrLeaseExpired
	}
	if len(req.Checkpoint) > 0 && l.shard == wholeJob {
		if err := c.opt.Backend.SaveExternalCheckpoint(l.jobID, req.Checkpoint); err != nil {
			c.opt.Backend.PublishExternal(l.jobID, "warning: checkpoint not persisted: "+err.Error())
		}
	}
	if req.Note != "" {
		c.opt.Backend.PublishExternal(l.jobID, req.Note)
	}
	if req.Abandon {
		c.releaseLocked(l, fmt.Sprintf("lease %s abandoned by %s, requeued", l.id, l.worker))
		return nil
	}
	l.expires = c.now().Add(c.opt.leaseTTL())
	return nil
}

// releaseLocked returns a lease's unit to pending (graceful abandon or
// expiry). Caller holds mu.
func (c *Coordinator) releaseLocked(l *lease, note string) {
	delete(c.leases, l.id)
	c.tombLocked(l)
	f := c.jobs[l.jobID]
	if f == nil {
		return
	}
	delete(f.leased, l.shard)
	f.pending = insertUnit(f.pending, l.shard)
	f.requeues++
	c.nRequeues++
	c.requeues.Inc()
	c.opt.Backend.PublishExternal(l.jobID, note)
	c.publishGaugesLocked()
}

// insertUnit adds unit to a sorted pending list (dedup-safe).
func insertUnit(pending []int, unit int) []int {
	i := sort.SearchInts(pending, unit)
	if i < len(pending) && pending[i] == unit {
		return pending
	}
	pending = append(pending, 0)
	copy(pending[i+1:], pending[i:])
	pending[i] = unit
	return pending
}

// tombLocked records where an expired/released lease pointed, bounded.
func (c *Coordinator) tombLocked(l *lease) {
	c.tombs[l.id] = tombstone{jobID: l.jobID, shard: l.shard}
	c.tombOrder = append(c.tombOrder, l.id)
	for len(c.tombOrder) > maxTombstones {
		delete(c.tombs, c.tombOrder[0])
		c.tombOrder = c.tombOrder[1:]
	}
}

// Complete settles a lease with a result or error. A completion whose
// lease already expired is never double-counted: if the re-dispatched
// unit already produced a result the late payload is compared against
// it (and the verdict recorded), otherwise it is dropped and the
// re-run's result stands.
func (c *Coordinator) Complete(req CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(req.Worker)
	l, ok := c.leases[req.Lease]
	if !ok {
		c.lateLocked(req)
		return ErrLeaseExpired
	}
	delete(c.leases, req.Lease)
	f := c.jobs[l.jobID]
	if f == nil || !c.opt.Backend.JobActive(l.jobID) {
		if f != nil {
			c.dropJobLocked(f, "")
		}
		c.publishGaugesLocked()
		return ErrLeaseExpired
	}
	delete(f.leased, l.shard)

	if req.Error != "" {
		// One failed unit fails the job: determinism means a retry would
		// fail identically, so there is nothing to recover.
		c.opt.Backend.FailExternal(f.id, req.Error)
		c.dropJobLocked(f, "")
		c.publishGaugesLocked()
		return nil
	}

	if l.shard == wholeJob {
		if err := c.opt.Backend.CompleteExternal(f.id, req.Result); err != nil {
			c.opt.Backend.PublishExternal(f.id, "fleet: settle: "+err.Error())
		}
		delete(c.jobs, f.id)
		c.publishGaugesLocked()
		return nil
	}

	f.results[l.shard] = req.Result
	c.opt.Backend.PublishExternal(f.id,
		fmt.Sprintf("shard %d/%d complete from %s (%d/%d done)",
			l.shard+1, len(f.plan), req.Worker, len(f.results), len(f.plan)))
	if len(f.results) == len(f.plan) {
		c.mergeLocked(f)
	}
	c.publishGaugesLocked()
	return nil
}

// mergeLocked folds a fully-resulted plan into the final document and
// settles the job. Caller holds mu.
func (c *Coordinator) mergeLocked(f *fleetJob) {
	parts := make([]json.RawMessage, len(f.plan))
	for i := range f.plan {
		parts[i] = f.results[i]
	}
	merged, err := c.opt.Merger(f.spec, parts)
	if err != nil {
		c.opt.Backend.FailExternal(f.id, "fleet: merging shards: "+err.Error())
	} else if err := c.opt.Backend.CompleteExternal(f.id, merged); err != nil {
		c.opt.Backend.PublishExternal(f.id, "fleet: settle: "+err.Error())
	}
	delete(c.jobs, f.id)
}

// lateLocked handles a completion for an unknown (expired) lease.
func (c *Coordinator) lateLocked(req CompleteRequest) {
	c.nLate++
	t, ok := c.tombs[req.Lease]
	if !ok {
		c.lateResults.With("unknown").Inc()
		return
	}
	verdict := "dropped"
	if f := c.jobs[t.jobID]; f != nil && t.shard != wholeJob {
		if prev, done := f.results[t.shard]; done {
			if bytes.Equal(prev, req.Result) {
				verdict = "identical"
			} else {
				verdict = "divergent"
			}
		}
	}
	c.lateResults.With(verdict).Inc()
	c.opt.Backend.PublishExternal(t.jobID,
		fmt.Sprintf("late result for lease %s from %s: %s (not double-counted)", req.Lease, req.Worker, verdict))
}

// dropJobLocked removes a job's bookkeeping and leases (cancel/failure
// paths). Caller holds mu.
func (c *Coordinator) dropJobLocked(f *fleetJob, note string) {
	for _, lid := range f.leased {
		if l := c.leases[lid]; l != nil {
			c.tombLocked(l)
		}
		delete(c.leases, lid)
	}
	if note != "" {
		c.opt.Backend.PublishExternal(f.id, note)
	}
	delete(c.jobs, f.id)
}

// ExpireTick reclaims every lease past its deadline: the unit returns
// to pending (counted as an expiration + requeue) and the next Claim
// re-dispatches it — from its last shipped checkpoint for whole jobs,
// from scratch (deterministically) for shards. Also refreshes gauges
// and pushes a fleet-health telemetry sample when state changed.
func (c *Coordinator) ExpireTick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, l := range c.leases {
		if now.After(l.expires) {
			c.nExpirations++
			c.expirations.Inc()
			c.releaseLocked(l, fmt.Sprintf("lease %s on %s expired (worker silent past TTL), requeued", l.id, l.worker))
		}
	}
	// A requeued unit whose job was canceled in the meantime is dropped
	// at the next Claim; no scan needed here.
	c.publishGaugesLocked()
	c.sampleLocked()
}

// Run drives ExpireTick on the heartbeat cadence until ctx is done.
func (c *Coordinator) Run(ctx interface{ Done() <-chan struct{} }) {
	t := time.NewTicker(c.opt.heartbeat())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.ExpireTick()
		}
	}
}

func (c *Coordinator) publishGaugesLocked() {
	c.workersLive.Set(float64(c.liveLocked()))
	c.leasesActive.Set(float64(len(c.leases)))
}

// sampleLocked pushes a fleet-health sample when state changed since
// the last push. Caller holds mu.
func (c *Coordinator) sampleLocked() {
	if c.opt.Telemetry == nil {
		return
	}
	cur := [4]uint64{uint64(c.liveLocked()), uint64(len(c.leases)), c.nExpirations, c.nRequeues}
	if cur == c.lastSampled && c.tick > 0 {
		return
	}
	deltaExp := cur[2] - c.lastSampled[2]
	deltaReq := cur[3] - c.lastSampled[3]
	c.lastSampled = cur
	c.tick++
	c.opt.Telemetry.Ingest(telemetry.Sample{
		Job:    "fleet",
		Kind:   "fleet",
		Window: c.tick,
		Gauges: map[string]float64{
			"fleet_workers_live":  float64(cur[0]),
			"fleet_leases_active": float64(cur[1]),
		},
		Counters: map[string]float64{
			"fleet_lease_expirations_total": float64(deltaExp),
			"fleet_requeues_total":          float64(deltaReq),
		},
	})
}

// --- status (GET /v1/fleet, dractl fleet) ---

// WorkerStatus is one worker's health view.
type WorkerStatus struct {
	ID         string `json:"id"`
	Live       bool   `json:"live"`
	LastSeenMs int64  `json:"last_seen_ms"` // milliseconds ago
	Leases     int    `json:"leases"`
}

// LeaseStatus is one active lease.
type LeaseStatus struct {
	Lease       string `json:"lease"`
	Job         string `json:"job"`
	Worker      string `json:"worker"`
	Shard       int    `json:"shard"` // -1 for a whole-job lease
	ShardCount  int    `json:"shard_count,omitempty"`
	ExpiresInMs int64  `json:"expires_in_ms"`
}

// JobStatus is one leased-out job's shard progress.
type JobStatus struct {
	Job      string `json:"job"`
	Shards   int    `json:"shards"`
	Done     int    `json:"done"`
	Pending  int    `json:"pending"`
	Leased   int    `json:"leased"`
	Requeues int    `json:"requeues"`
}

// Status is the fleet-health document.
type Status struct {
	LeaseTTLMs  int64          `json:"lease_ttl_ms"`
	HeartbeatMs int64          `json:"heartbeat_ms"`
	WorkersLive int            `json:"workers_live"`
	Degraded    bool           `json:"degraded"`
	Workers     []WorkerStatus `json:"workers,omitempty"`
	Leases      []LeaseStatus  `json:"leases,omitempty"`
	Jobs        []JobStatus    `json:"jobs,omitempty"`
	Expirations uint64         `json:"lease_expirations"`
	Requeues    uint64         `json:"requeues"`
	LateResults uint64         `json:"late_results"`
}

// Status snapshots the fleet.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	cutoff := now.Add(-c.opt.leaseTTL())
	st := Status{
		LeaseTTLMs:  c.opt.leaseTTL().Milliseconds(),
		HeartbeatMs: c.opt.heartbeat().Milliseconds(),
		WorkersLive: c.liveLocked(),
		Expirations: c.nExpirations,
		Requeues:    c.nRequeues,
		LateResults: c.nLate,
	}
	st.Degraded = st.WorkersLive == 0
	perWorker := make(map[string]int)
	for _, l := range c.leases {
		perWorker[l.worker]++
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			ID:         w.id,
			Live:       !w.lastSeen.Before(cutoff),
			LastSeenMs: now.Sub(w.lastSeen).Milliseconds(),
			Leases:     perWorker[w.id],
		})
	}
	sort.Slice(st.Workers, func(a, b int) bool { return st.Workers[a].ID < st.Workers[b].ID })
	for _, l := range c.leases {
		ls := LeaseStatus{
			Lease:       l.id,
			Job:         l.jobID,
			Worker:      l.worker,
			Shard:       l.shard,
			ExpiresInMs: l.expires.Sub(now).Milliseconds(),
		}
		if f := c.jobs[l.jobID]; f != nil && f.plan != nil {
			ls.ShardCount = len(f.plan)
		}
		st.Leases = append(st.Leases, ls)
	}
	sort.Slice(st.Leases, func(a, b int) bool { return st.Leases[a].Lease < st.Leases[b].Lease })
	for _, id := range c.jobIDsLocked() {
		f := c.jobs[id]
		st.Jobs = append(st.Jobs, JobStatus{
			Job:      f.id,
			Shards:   f.units(),
			Done:     len(f.results),
			Pending:  len(f.pending),
			Leased:   len(f.leased),
			Requeues: f.requeues,
		})
	}
	return st
}
