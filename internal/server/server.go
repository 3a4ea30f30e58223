// Package server is drad's HTTP face: a stdlib net/http API over the
// jobs.Manager. It exposes job submission with admission-control
// semantics mapped onto status codes (429 + Retry-After when the queue
// is full, 503 while draining), status/result/cancel endpoints, and a
// chunked NDJSON progress stream per job fed from the job's lifecycle
// events, its private metrics registry, and its trace recorder. The
// service-wide introspection endpoints (/metrics, /metrics.json,
// /timeline.json, /debug/pprof) mount alongside the API on the same
// listener.
//
// Routes:
//
//	POST   /v1/jobs             submit a spec (202 queued, 200 cache hit)
//	GET    /v1/jobs             list known jobs
//	GET    /v1/jobs/{id}        job snapshot
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/result stored result document
//	GET    /v1/jobs/{id}/events NDJSON progress stream
//	POST   /v1/telemetry        ingest windowed samples (NDJSON or array)
//	GET    /v1/telemetry        fleet aggregate summary
//	GET    /v1/telemetry/{id}   per-job series range query (?since=&limit=)
//	GET    /v1/telemetry/tail   fleet-wide NDJSON live tail
//	POST   /v1/fleet/register   worker registration   (coordinator mode)
//	POST   /v1/fleet/claim      worker claims work    (coordinator mode)
//	POST   /v1/fleet/renew      lease heartbeat       (coordinator mode)
//	POST   /v1/fleet/complete   deliver unit result   (coordinator mode)
//	GET    /v1/fleet            fleet status          (coordinator mode)
//	GET    /healthz             readiness (503 while draining or when
//	                            checkpoint/result storage stops taking writes)
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/mgmt"
	"repro/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Manager is the job scheduler the API fronts (required).
	Manager *jobs.Manager
	// Metrics is the service-wide registry served at /metrics; nil
	// serves an empty registry.
	Metrics *metrics.Registry
	// Timeline backs /timeline.json (may be nil).
	Timeline metrics.TimelineFunc
	// SampleInterval is the cadence of metric/trace samples on the
	// events stream; 0 selects 250ms.
	SampleInterval time.Duration
	// MaxSpecBytes bounds a submitted spec body; 0 selects 1 MiB.
	MaxSpecBytes int64
	// Telemetry backs the /v1/telemetry endpoints; nil serves 404s
	// there (the routes stay unmounted).
	Telemetry *telemetry.Hub
	// TailBuffer overrides the per-subscriber sample buffer of the
	// fleet tail (0 selects the hub default). Small values force the
	// lossy-overflow path; tests use this.
	TailBuffer int
	// Fleet, when non-nil, mounts the /v1/fleet worker protocol and the
	// coordinator's status on this server. Nil (standalone mode) leaves
	// those routes unmounted.
	Fleet *fleet.Coordinator
	// StoreProbe, when non-nil, is consulted by /healthz alongside the
	// manager's state-dir probe; a failure flips readiness to 503.
	// Typically store.(*Store).WriteProbe.
	StoreProbe func() error
	// Mgmt, when non-nil, attaches the management plane: API-key
	// authentication on the job endpoints, per-tenant quotas surfaced as
	// 429 tenant_quota refusals, audit recording, and the /v1/keys,
	// /v1/audit, and /v1/config routes. Nil keeps the pre-tenancy
	// behavior: every caller is the anonymous default-tenant admin.
	Mgmt *mgmt.Manager
}

const (
	defaultSampleInterval = 250 * time.Millisecond
	defaultMaxSpecBytes   = 1 << 20
	retryAfterSeconds     = "1"
)

// Server is the drad HTTP handler.
type Server struct {
	mgr *jobs.Manager
	opt Options
	mux *http.ServeMux
}

// New builds the handler.
func New(opt Options) (*Server, error) {
	if opt.Manager == nil {
		return nil, fmt.Errorf("server: Options.Manager is required")
	}
	if opt.SampleInterval <= 0 {
		opt.SampleInterval = defaultSampleInterval
	}
	if opt.MaxSpecBytes <= 0 {
		opt.MaxSpecBytes = defaultMaxSpecBytes
	}
	reg := opt.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{mgr: opt.Manager, opt: opt, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	if opt.Telemetry != nil {
		s.mux.HandleFunc("POST /v1/telemetry", s.telemetryIngest)
		s.mux.HandleFunc("GET /v1/telemetry", s.telemetryFleet)
		s.mux.HandleFunc("GET /v1/telemetry/tail", s.telemetryTail)
		s.mux.HandleFunc("GET /v1/telemetry/{id}", s.telemetryQuery)
	}
	if opt.Fleet != nil {
		s.mux.HandleFunc("POST /v1/fleet/register", s.fleetRegister)
		s.mux.HandleFunc("POST /v1/fleet/claim", s.fleetClaim)
		s.mux.HandleFunc("POST /v1/fleet/renew", s.fleetRenew)
		s.mux.HandleFunc("POST /v1/fleet/complete", s.fleetComplete)
		s.mux.HandleFunc("GET /v1/fleet", s.fleetStatus)
	}
	if opt.Mgmt != nil {
		s.mux.HandleFunc("POST /v1/keys", s.keyCreate)
		s.mux.HandleFunc("GET /v1/keys", s.keyList)
		s.mux.HandleFunc("DELETE /v1/keys/{id}", s.keyRevoke)
		s.mux.HandleFunc("GET /v1/audit", s.auditQuery)
		s.mux.HandleFunc("GET /v1/config", s.configRunning)
		s.mux.HandleFunc("GET /v1/config/candidate", s.configCandidate)
		s.mux.HandleFunc("PUT /v1/config/candidate", s.configPutCandidate)
		s.mux.HandleFunc("POST /v1/config/set", s.configSet)
		s.mux.HandleFunc("GET /v1/config/diff", s.configDiff)
		s.mux.HandleFunc("POST /v1/config/commit", s.configCommit)
		s.mux.HandleFunc("POST /v1/config/rollback", s.configRollback)
	}
	s.mux.HandleFunc("GET /healthz", s.healthz)
	// Introspection shares the listener: the metrics handler owns its
	// own sub-routes, including /debug/pprof.
	mh := metrics.Handler(reg, opt.Timeline)
	for _, p := range []string{"/metrics", "/metrics.json", "/timeline.json", "/debug/"} {
		s.mux.Handle(p, mh)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// apiError is the uniform error body. Cause, when set, machine-labels
// the refusal class — "busy" (global admission), "tenant_quota"
// (per-tenant quota) — so clients can distinguish backoff strategies
// without parsing the message.
type apiError struct {
	Error string `json:"error"`
	Cause string `json:"cause,omitempty"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

func writeErrorCause(w http.ResponseWriter, status int, cause, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...), Cause: cause})
}

// submit parses, validates, authorizes, and admits a job spec on
// behalf of the caller's tenant.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	id, ok := s.authorize(w, r, mgmt.VerbSubmit)
	if !ok {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opt.MaxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.opt.MaxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", s.opt.MaxSpecBytes)
		return
	}
	spec, err := config.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap, err := s.mgr.SubmitAs(id.Tenant, spec)
	var qerr *mgmt.QuotaError
	switch {
	case errors.As(err, &qerr):
		// Per-tenant quota refusal: the caller is over its own share,
		// not the service over capacity. The distinct cause lets a
		// client tell the two apart; Retry-After carries the quota
		// keeper's backoff hint.
		secs := int(qerr.RetryAfter.Seconds() + 0.999)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.audit(id, mgmt.VerbSubmit, "", "tenant_quota", qerr.Reason)
		writeErrorCause(w, http.StatusTooManyRequests, "tenant_quota", "%v", err)
		return
	case errors.Is(err, jobs.ErrBusy):
		// Global admission control: bounded memory beats a dead server.
		// The client backs off and retries.
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.audit(id, mgmt.VerbSubmit, "", "busy", "")
		writeErrorCause(w, http.StatusTooManyRequests, "busy", "%v", err)
		return
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, jobs.ErrNoRunner):
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	status := http.StatusAccepted
	outcome := "ok"
	if snap.Cached {
		// The content-addressed store already holds this result; no
		// computation was scheduled.
		status = http.StatusOK
		outcome = "cache"
	}
	s.audit(id, mgmt.VerbSubmit, snap.ID, outcome, snap.Kind)
	writeJSON(w, status, snap)
}

// list serves the job index with optional paging and filtering:
// ?limit=N caps the (newest-first) result, ?since=<RFC3339|unix-ms>
// keeps jobs submitted after the mark, ?tenant= filters by tenant.
// Non-admin callers only ever see their own tenant's jobs.
func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	id, ok := s.authorize(w, r, mgmt.VerbRead)
	if !ok {
		return
	}
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit wants a non-negative integer")
			return
		}
		limit = n
	}
	var since time.Time
	if v := q.Get("since"); v != "" {
		t, err := parseSince(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		since = t
	}
	tenant, tenantSet := q.Get("tenant"), q.Has("tenant")
	if id.Role != mgmt.RoleAdmin {
		// A non-admin key is scoped to its own tenant regardless of what
		// it asked for.
		tenant, tenantSet = id.Tenant, true
	}
	all := s.mgr.List()
	out := make([]jobs.Snapshot, 0, len(all))
	for _, snap := range all {
		if tenantSet && snap.Tenant != tenant {
			continue
		}
		if !since.IsZero() && !snap.SubmittedAt.After(since) {
			continue
		}
		out = append(out, snap)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// jobForCaller resolves a by-ID job reference under tenant scoping:
// non-admin callers only ever reach jobs their own tenant submitted.
// A job owned elsewhere answers 404 — not 403 — because job IDs are
// content-addressed (deterministic from the spec) and therefore
// guessable without list access; a 403 would leak the cross-tenant
// existence that list() deliberately hides.
func (s *Server) jobForCaller(w http.ResponseWriter, id mgmt.Identity, jobID string) (jobs.Snapshot, bool) {
	snap, err := s.mgr.Get(jobID)
	if err != nil || !callerOwns(id, snap.Tenant) {
		writeError(w, http.StatusNotFound, "%v", jobs.ErrNotFound)
		return jobs.Snapshot{}, false
	}
	return snap, true
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	id, ok := s.authorize(w, r, mgmt.VerbRead)
	if !ok {
		return
	}
	snap, ok := s.jobForCaller(w, id, r.PathValue("id"))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id, ok := s.authorize(w, r, mgmt.VerbCancel)
	if !ok {
		return
	}
	jobID := r.PathValue("id")
	if _, ok := s.jobForCaller(w, id, jobID); !ok {
		return
	}
	err := s.mgr.Cancel(jobID)
	if errors.Is(err, jobs.ErrNotFound) {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.audit(id, mgmt.VerbCancel, jobID, "ok", "")
	snap, _ := s.mgr.Get(jobID)
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	id, ok := s.authorize(w, r, mgmt.VerbRead)
	if !ok {
		return
	}
	jobID := r.PathValue("id")
	snap, err := s.mgr.Get(jobID)
	known := err == nil
	if known && !callerOwns(id, snap.Tenant) {
		writeError(w, http.StatusNotFound, "%v", jobs.ErrNotFound)
		return
	}
	if !known && id.Role != mgmt.RoleAdmin {
		// The job record is gone (pruned, or from before a restart), so
		// tenant attribution is lost; results without a record stay
		// admin-only rather than leaking across tenants by guessed ID.
		writeError(w, http.StatusNotFound, "%v", jobs.ErrNotFound)
		return
	}
	res, err := s.mgr.Result(jobID)
	if err != nil {
		// Distinguish "job exists but is not done" from "never heard of
		// it" so clients can poll sensibly.
		if known && snap.State != jobs.StateDone {
			writeError(w, http.StatusConflict, "job %s is %s, result not available", jobID, snap.State)
			return
		}
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res)
}

// healthz reports readiness: 200 while serving, 503 once draining so
// load balancers and orchestration pull the instance before shutdown
// completes. The body carries the drain flag, queue depth (queued +
// running), and the running-job count.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	draining := s.mgr.Draining()

	// Storage readiness: a state dir or result store that stopped
	// accepting writes means checkpoints and results are being lost —
	// report not-ready before a job pays for it.
	storageErr := s.mgr.WriteProbe()
	if storageErr == nil && s.opt.StoreProbe != nil {
		storageErr = s.opt.StoreProbe()
	}

	body := map[string]any{
		"ok":         !draining && storageErr == nil,
		"draining":   draining,
		"storage_ok": storageErr == nil,
		"queued":     s.mgr.QueueDepth(),
		"running":    s.mgr.Running(),
	}
	if storageErr != nil {
		body["storage_error"] = storageErr.Error()
	}
	if s.opt.Fleet != nil {
		// A coordinator with zero live workers still accepts submissions
		// (202s queue until a worker appears) but reports itself degraded.
		body["fleet_workers"] = s.opt.Fleet.WorkersLive()
		body["fleet_leases"] = s.opt.Fleet.LeasesActive()
		body["fleet_degraded"] = s.opt.Fleet.WorkersLive() == 0
	}
	code := http.StatusOK
	if draining || storageErr != nil {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// streamLine is one NDJSON line of a job's progress stream.
type streamLine struct {
	Type string `json:"type"` // "event" | "sample"
	// event fields
	Event *jobs.Event `json:"event,omitempty"`
	// sample fields
	JobID       string          `json:"job,omitempty"`
	UnixMs      int64           `json:"unix_ms,omitempty"`
	Metrics     json.RawMessage `json:"metrics,omitempty"`
	TraceEvents int             `json:"trace_events,omitempty"`
}

// events streams a job's progress as chunked NDJSON: every lifecycle
// transition and runner note as an "event" line, plus periodic "sample"
// lines carrying the job's private metrics snapshot and trace depth.
// The stream ends when the job comes to rest or the client goes away.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	caller, ok := s.authorize(w, r, mgmt.VerbRead)
	if !ok {
		return
	}
	id := r.PathValue("id")
	if _, ok := s.jobForCaller(w, caller, id); !ok {
		return
	}
	ch, unsub, err := s.mgr.Subscribe(id)
	if errors.Is(err, jobs.ErrNotFound) {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer unsub()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(line streamLine) bool {
		if err := enc.Encode(line); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	sample := func() bool {
		reg := s.mgr.Registry(id)
		rec := s.mgr.Trace(id)
		if reg == nil {
			return true
		}
		// Compact, not SnapshotJSON's indented form: the line encoder
		// compacts a RawMessage anyway.
		snap, err := json.Marshal(reg.Snapshot())
		if err != nil {
			return true
		}
		line := streamLine{Type: "sample", JobID: id, UnixMs: time.Now().UnixMilli(), Metrics: snap}
		if rec != nil {
			line.TraceEvents = rec.Len()
		}
		return emit(line)
	}

	ticker := time.NewTicker(s.opt.SampleInterval)
	defer ticker.Stop()
	for {
		select {
		case ev := <-ch:
			e := ev
			if !emit(streamLine{Type: "event", Event: &e}) {
				return
			}
			if ev.State.Terminal() || ev.State == jobs.StateInterrupted {
				// Final metrics snapshot, then end the stream.
				sample()
				return
			}
		case <-ticker.C:
			// Event delivery is best-effort: a slow subscriber can lose
			// the terminal transition. The snapshot is ground truth, so
			// every tick also checks it and closes the stream with a
			// synthesized final event and the final metrics snapshot
			// rather than sampling forever.
			if snap, err := s.mgr.Get(id); err == nil &&
				(snap.State.Terminal() || snap.State == jobs.StateInterrupted) {
				if emit(streamLine{Type: "event", Event: &jobs.Event{
					JobID: id, Time: time.Now().UnixMilli(),
					State: snap.State, Note: snap.Error,
				}}) {
					sample()
				}
				return
			}
			if !sample() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
