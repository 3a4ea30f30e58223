package fleet

// The worker side of the fleet protocol: register, claim, run with
// heartbeat renewal (shipping engine checkpoints), complete or abandon.
// A worker survives coordinator restarts (every call retries with
// backoff) and makes its own death cheap: whatever it was running is
// re-dispatched by lease expiry, resuming from the last checkpoint it
// shipped — so kill -9 on a worker looks exactly like the SIGTERM
// drain the single-process server already handles.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/config"
	"repro/internal/httpretry"
)

// Cancellation causes a worker applies to a running assignment.
var (
	errLeaseLost   = errors.New("fleet: lease lost")
	errWorkerDrain = errors.New("fleet: worker draining")
)

// statusError is a definitive non-2xx coordinator verdict that survived
// the retry budget (410s are reported separately as gone).
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// ExecuteRequest is one unit of work handed to the execution callback.
type ExecuteRequest struct {
	Job  string
	Spec config.Spec
	// Shard, when non-nil, selects a deterministic slice of the job;
	// nil runs the job whole.
	Shard *ShardSpec
	// CheckpointPath is the worker-local checkpoint file: pre-seeded
	// with the coordinator's recovery bytes on resume, written by the
	// engine at batch boundaries, shipped back with each heartbeat.
	CheckpointPath string
	// Progress forwards a note to the job's event stream (nil-safe).
	Progress func(string)
}

// ExecuteFunc runs one unit of work. The facade (repro.FleetExecutor)
// provides it, keeping the dependency arrow facade → fleet.
type ExecuteFunc func(ctx context.Context, req ExecuteRequest) (json.RawMessage, error)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// ID names the worker in leases and status output (required).
	ID string
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// Execute runs claimed work (required).
	Execute ExecuteFunc
	// StateDir holds worker-local checkpoint scratch; "" uses a temp dir.
	StateDir string
	// Poll overrides the claim-poll interval (default: the heartbeat
	// the coordinator advertises).
	Poll time.Duration
	// Log receives progress lines; nil discards.
	Log func(format string, args ...any)
}

// Worker claims and executes fleet assignments until its context ends.
type Worker struct {
	opt    WorkerOptions
	client *httpretry.Client
	hb     time.Duration
}

// NewWorker builds a Worker.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	if opt.ID == "" || opt.Coordinator == "" || opt.Execute == nil {
		return nil, fmt.Errorf("fleet: worker needs ID, Coordinator, and Execute")
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	return &Worker{opt: opt, client: &httpretry.Client{HC: hc}}, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.opt.Log != nil {
		w.opt.Log(format, args...)
	}
}

// post sends a JSON request and decodes a JSON response. gone=true maps
// HTTP 410 (lease expired / job canceled).
func (w *Worker) post(ctx context.Context, path string, req, out any) (gone bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return false, err
	}
	resp, err := w.client.Post(ctx, w.opt.Coordinator+path, "application/json", body)
	if err != nil {
		return false, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusGone:
		return true, nil
	case resp.StatusCode == http.StatusNoContent:
		return false, nil
	case resp.StatusCode/100 != 2:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return false, &statusError{code: resp.StatusCode, msg: fmt.Sprintf("fleet: %s: %s: %s", path, resp.Status, msg)}
	}
	if out != nil {
		return false, json.NewDecoder(resp.Body).Decode(out)
	}
	return false, nil
}

// Run is the worker main loop: register, then claim/execute until ctx
// is done. Coordinator unavailability is absorbed by retry + the poll
// cadence, never fatal — the worker keeps polling until the
// coordinator returns.
func (w *Worker) Run(ctx context.Context) error {
	stateDir := w.opt.StateDir
	if stateDir == "" {
		d, err := os.MkdirTemp("", "fleet-worker-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		stateDir = d
	} else if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}

	var reg RegisterResponse
	if _, err := w.post(ctx, "/v1/fleet/register", RegisterRequest{Worker: w.opt.ID}, &reg); err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return fmt.Errorf("fleet: registering with %s: %w", w.opt.Coordinator, err)
	}
	w.hb = time.Duration(reg.HeartbeatMs) * time.Millisecond
	if w.hb <= 0 {
		w.hb = DefaultLeaseTTL / 3
	}
	poll := w.opt.Poll
	if poll <= 0 {
		poll = w.hb
	}
	w.logf("worker %s registered with %s (lease %dms, heartbeat %s)", w.opt.ID, w.opt.Coordinator, reg.LeaseTTLMs, w.hb)

	for ctx.Err() == nil {
		var a Assignment
		gone, err := w.post(ctx, "/v1/fleet/claim", ClaimRequest{Worker: w.opt.ID}, &a)
		switch {
		case ctx.Err() != nil:
			return nil
		case err != nil || gone:
			w.logf("worker %s: claim: %v", w.opt.ID, err)
			sleepCtx(ctx, poll)
			continue
		case a.Lease == "":
			sleepCtx(ctx, poll)
			continue
		}
		w.runAssignment(ctx, stateDir, a)
	}
	return nil
}

// runAssignment executes one lease to completion, renewal by renewal.
func (w *Worker) runAssignment(ctx context.Context, stateDir string, a Assignment) {
	var spec config.Spec
	if err := json.Unmarshal(a.Spec, &spec); err != nil {
		w.complete(ctx, a, nil, fmt.Errorf("fleet: decoding spec: %w", err))
		return
	}
	ckptPath := filepath.Join(stateDir, leaseFile(a))
	if len(a.Checkpoint) > 0 {
		if err := os.WriteFile(ckptPath, a.Checkpoint, 0o644); err != nil {
			w.logf("worker %s: seeding checkpoint: %v", w.opt.ID, err)
		}
	}
	defer os.Remove(ckptPath)

	jctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	unit := "job " + short(a.Job)
	if a.Shard != nil {
		unit = fmt.Sprintf("job %s shard %d/%d", short(a.Job), a.Shard.Index+1, a.Shard.Count)
	}
	w.logf("worker %s: claimed %s (lease %s)", w.opt.ID, unit, a.Lease)

	type outcome struct {
		result json.RawMessage
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := w.opt.Execute(jctx, ExecuteRequest{
			Job:            a.Job,
			Spec:           spec,
			Shard:          a.Shard,
			CheckpointPath: ckptPath,
			Progress: func(note string) {
				w.renewAsync(ctx, a, RenewRequest{Worker: w.opt.ID, Lease: a.Lease, Note: note})
			},
		})
		done <- outcome{res, err}
	}()

	hb := time.NewTicker(w.hb)
	defer hb.Stop()
	var lastShipped []byte
	for {
		select {
		case <-ctx.Done():
			// Drain: stop the engine (it checkpoints at the next batch
			// boundary), then hand the lease back gracefully with the
			// final state so the unit requeues immediately.
			cancel(errWorkerDrain)
			<-done
			req := RenewRequest{Worker: w.opt.ID, Lease: a.Lease, Abandon: true, Note: fmt.Sprintf("worker %s draining", w.opt.ID)}
			if data, err := os.ReadFile(ckptPath); err == nil && len(data) > 0 {
				req.Checkpoint = data
			}
			// The worker context is gone; give the handback its own
			// short deadline.
			rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
			w.post(rctx, "/v1/fleet/renew", req, nil)
			rcancel()
			w.logf("worker %s: drained, abandoned %s", w.opt.ID, unit)
			return

		case <-hb.C:
			req := RenewRequest{Worker: w.opt.ID, Lease: a.Lease}
			if data, err := os.ReadFile(ckptPath); err == nil && len(data) > 0 && !bytes.Equal(data, lastShipped) {
				req.Checkpoint = data
				lastShipped = data
			}
			gone, err := w.post(ctx, "/v1/fleet/renew", req, nil)
			if gone {
				// Expired or canceled: abandon the run, discard the result.
				w.logf("worker %s: lease %s gone, abandoning %s", w.opt.ID, a.Lease, unit)
				cancel(errLeaseLost)
				<-done
				return
			}
			if err != nil {
				w.logf("worker %s: renew: %v", w.opt.ID, err)
			}

		case o := <-done:
			if cause := context.Cause(jctx); cause == errLeaseLost || cause == errWorkerDrain {
				return
			}
			w.complete(ctx, a, o.result, o.err)
			return
		}
	}
}

// complete delivers the outcome (success or failure) to the coordinator.
func (w *Worker) complete(ctx context.Context, a Assignment, result json.RawMessage, runErr error) {
	req := CompleteRequest{Worker: w.opt.ID, Lease: a.Lease, Result: result}
	if runErr != nil {
		req.Error = runErr.Error()
	}
	gone, err := w.post(ctx, "/v1/fleet/complete", req, nil)
	var se *statusError
	switch {
	case gone:
		w.logf("worker %s: lease %s expired before completion; result dropped by coordinator", w.opt.ID, a.Lease)
	case errors.As(err, &se) && se.code/100 == 4 && runErr == nil && result != nil:
		// The coordinator rejected the payload itself (e.g. the result
		// exceeded the body cap) — re-running the unit reproduces the
		// same rejection forever, so fail it cleanly instead of letting
		// the lease requeue-cycle.
		w.logf("worker %s: result rejected (%v); failing the unit", w.opt.ID, err)
		w.complete(ctx, a, nil, fmt.Errorf("fleet: result rejected by coordinator: %v", err))
	case err != nil:
		// Coordinator unreachable past the retry budget: the lease will
		// expire and the unit re-runs deterministically elsewhere.
		w.logf("worker %s: complete: %v (lease will expire and requeue)", w.opt.ID, err)
	default:
		w.logf("worker %s: completed lease %s", w.opt.ID, a.Lease)
	}
}

// renewAsync fires a best-effort note-carrying renew without blocking
// the engine's progress callback.
func (w *Worker) renewAsync(ctx context.Context, a Assignment, req RenewRequest) {
	go w.post(ctx, "/v1/fleet/renew", req, nil)
}

func leaseFile(a Assignment) string {
	if a.Shard != nil {
		return fmt.Sprintf("%s-s%d.ckpt", a.Job, a.Shard.Index)
	}
	return a.Job + ".ckpt"
}

func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
