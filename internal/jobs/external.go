package jobs

// External execution: the fleet coordinator's view of the manager.
// In Options.External mode queued jobs are never run in-process;
// instead the coordinator leases them to worker processes and settles
// them through the methods here. The manager keeps owning admission,
// dedup, caching, class limits, persistence, and recovery — a leased
// job holds its admission and class-limit slots exactly like a running
// one, so fleet execution respects the same scheduling contract.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/config"
)

// ErrNotLeased is returned when an external settle call names a job
// that is not currently leased — typically because its lease expired
// and the coordinator already requeued or re-leased it, or because a
// user canceled it.
var ErrNotLeased = errors.New("jobs: job is not leased")

// ExternalJob is one queued job handed out for external execution.
type ExternalJob struct {
	ID   string
	Spec config.Spec
	// Checkpoint is the last persisted engine checkpoint (from a
	// previous lease's heartbeats or a pre-drain local run); nil when
	// the job starts fresh.
	Checkpoint []byte
}

// ClaimExternal hands the best eligible queued job to a fleet worker,
// moving it to StateLeased. Eligibility matches local dispatch: highest
// priority class first, weighted-fair round robin across tenants
// within it (plain FIFO for a single tenant), kinds at their class
// limit skipped. Returns false when nothing is claimable.
func (m *Manager) ClaimExternal(worker string) (ExternalJob, bool) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return ExternalJob{}, false
	}
	j := m.queue.pop(m.eligibleLocked)
	if j == nil {
		m.mu.Unlock()
		return ExternalJob{}, false
	}
	decTenantLocked(m.queuedT, j.tenant)
	m.running[j.kind]++
	m.runningT[j.tenant]++
	m.runningG.Add(1)
	j.state = StateLeased
	j.worker = worker
	if j.started.IsZero() {
		j.started = time.Now()
	}
	m.queueDepth.Set(float64(m.queue.len()))
	m.publishLocked(j, "leased to "+worker)
	id, spec := j.id, j.spec
	m.mu.Unlock()

	out := ExternalJob{ID: id, Spec: spec}
	if path := m.checkpointPath(id); path != "" {
		if data, err := os.ReadFile(path); err == nil {
			out.Checkpoint = data
			m.mu.Lock()
			j.resumed = true
			m.mu.Unlock()
			m.publish(j, "resuming from checkpoint")
		}
	}
	return out, true
}

// CompleteExternal stores a leased job's result and settles it done
// (or failed, if the store rejects the document).
func (m *Manager) CompleteExternal(id string, result json.RawMessage) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	if j.state != StateLeased {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrNotLeased, id, j.state)
	}
	m.mu.Unlock()

	final, note := StateDone, ""
	if perr := m.opt.Store.Put(id, result); perr != nil {
		final, note = StateFailed, "storing result: "+perr.Error()
	}
	m.settleExternal(j, final, note)
	return nil
}

// FailExternal settles a leased job as failed with the worker's error.
func (m *Manager) FailExternal(id, msg string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	if j.state != StateLeased {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrNotLeased, id, j.state)
	}
	m.mu.Unlock()
	m.settleExternal(j, StateFailed, msg)
	return nil
}

// settleExternal finalizes a leased job, mirroring execute()'s terminal
// bookkeeping.
func (m *Manager) settleExternal(j *job, final State, note string) {
	m.mu.Lock()
	if j.state != StateLeased {
		// A cancel or a racing settle won; nothing left to do.
		m.mu.Unlock()
		return
	}
	m.running[j.kind]--
	decTenantLocked(m.runningT, j.tenant)
	m.runningG.Add(-1)
	j.state = final
	j.errMsg = ""
	if final == StateFailed {
		j.errMsg = note
	}
	j.worker = ""
	j.finished = time.Now()
	m.duration.Observe(j.finished.Sub(j.started).Seconds())
	m.completed.With(string(final)).Inc()
	m.publishLocked(j, note)
	close(j.done)
	m.mu.Unlock()
	m.unpersist(j.id)
	m.dispatch()
}

// JobActive reports whether the job is still leased — the coordinator's
// check that a renewing or completing worker is not racing a cancel.
func (m *Manager) JobActive(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return ok && j.state == StateLeased
}

// PublishExternal surfaces a worker progress note on the job's event
// stream.
func (m *Manager) PublishExternal(id, note string) {
	if j := m.get(id); j != nil {
		m.publish(j, note)
	}
}

// SaveExternalCheckpoint atomically persists checkpoint bytes a worker
// shipped with its lease renewal. After a lease expiry the next claim
// hands these bytes back, so the re-dispatched run resumes exactly
// where the dead worker last heartbeat — the same recovery a SIGTERM
// drain gets locally.
func (m *Manager) SaveExternalCheckpoint(id string, data []byte) error {
	path := m.checkpointPath(id)
	if path == "" || len(data) == 0 {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
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

// --- state-dir write probe ---

const writeProbeTTL = 2 * time.Second

// WriteProbe verifies the state directory still accepts writes (disk
// full and permission flips are the readiness failures /healthz must
// catch before a job loses its checkpoints). The result is cached for
// writeProbeTTL so a scraped healthz endpoint does not hammer the disk,
// and published as the jobs_state_writable gauge. A manager without a
// state dir always probes clean.
func (m *Manager) WriteProbe() error {
	if m.opt.Dir == "" {
		return nil
	}
	m.probeMu.Lock()
	defer m.probeMu.Unlock()
	if time.Since(m.probeAt) < writeProbeTTL {
		return m.probeErr
	}
	m.probeAt = time.Now()
	m.probeErr = probeDir(filepath.Join(m.opt.Dir, pendingDirName))
	g := m.opt.Metrics.Gauge("jobs_state_writable", "1 when the job state directory accepts writes, 0 when checkpoint persistence is failing.")
	if m.probeErr != nil {
		g.Set(0)
	} else {
		g.Set(1)
	}
	return m.probeErr
}

// probeDir attempts a small write-and-remove in dir.
func probeDir(dir string) error {
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	_, werr := f.Write([]byte("probe"))
	cerr := f.Close()
	os.Remove(name)
	if werr != nil {
		return werr
	}
	return cerr
}
