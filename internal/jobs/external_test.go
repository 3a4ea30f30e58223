package jobs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/config"
)

func externalManager(t *testing.T, opt Options) *Manager {
	t.Helper()
	opt.External = true
	if opt.Runners == nil {
		// External mode never dispatches, but submission still requires a
		// registered kind.
		opt.Runners = map[string]Runner{
			config.KindReliability:  nil,
			config.KindAvailability: nil,
		}
	}
	return newManager(t, opt)
}

func TestExternalModeNeverDispatchesLocally(t *testing.T) {
	var calls int
	m := externalManager(t, Options{Runners: map[string]Runner{
		config.KindReliability: func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
			calls++
			return json.RawMessage(`{}`), nil
		},
	}})
	snap, err := m.Submit(mcSpec(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got, err := m.Get(snap.ID); err != nil || got.State != StateQueued {
		t.Fatalf("external job should stay queued, got %+v (%v)", got, err)
	}
	if calls != 0 {
		t.Fatal("local runner invoked in external mode")
	}
}

func TestClaimExternalEligibilityAndSettle(t *testing.T) {
	m := externalManager(t, Options{})
	lo, err := m.Submit(mcSpec(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := m.Submit(mcSpec(2, 5))
	if err != nil {
		t.Fatal(err)
	}

	// Priority first: the later, higher-priority submit claims first.
	ej, ok := m.ClaimExternal("w1")
	if !ok || ej.ID != hi.ID {
		t.Fatalf("claimed %v (ok=%v), want high-priority %s", ej.ID, ok, hi.ID)
	}
	if got, _ := m.Get(hi.ID); got.State != StateLeased || got.Worker != "w1" {
		t.Fatalf("leased snapshot %+v", got)
	}
	if !m.JobActive(hi.ID) {
		t.Fatal("leased job not active")
	}

	// FIFO within priority.
	ej2, ok := m.ClaimExternal("w2")
	if !ok || ej2.ID != lo.ID {
		t.Fatalf("second claim %v, want %s", ej2.ID, lo.ID)
	}
	if _, ok := m.ClaimExternal("w3"); ok {
		t.Fatal("empty queue should not claim")
	}

	// Settle both; results land in the store and waiters release.
	if err := m.CompleteExternal(hi.ID, json.RawMessage(`{"est":1}`)); err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, m, hi.ID)
	if snap.State != StateDone {
		t.Fatalf("state %s", snap.State)
	}
	if res, err := m.Result(hi.ID); err != nil || string(res) != `{"est":1}` {
		t.Fatalf("result %s %v", res, err)
	}
	if err := m.FailExternal(lo.ID, "worker exploded"); err != nil {
		t.Fatal(err)
	}
	snap = waitDone(t, m, lo.ID)
	if snap.State != StateFailed || snap.Error != "worker exploded" {
		t.Fatalf("failed snapshot %+v", snap)
	}
}

func TestClaimExternalHonorsClassLimits(t *testing.T) {
	m := externalManager(t, Options{ClassLimits: map[string]int{config.KindReliability: 1}})
	a, _ := m.Submit(mcSpec(1, 0))
	b, _ := m.Submit(mcSpec(2, 0))

	ej, ok := m.ClaimExternal("w1")
	if !ok || ej.ID != a.ID {
		t.Fatalf("claim %v", ej.ID)
	}
	// Same-kind job blocked at the class limit even with queue depth.
	if _, ok := m.ClaimExternal("w2"); ok {
		t.Fatal("class limit ignored by external claim")
	}
	if err := m.CompleteExternal(a.ID, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	ej2, ok := m.ClaimExternal("w2")
	if !ok || ej2.ID != b.ID {
		t.Fatalf("slot not released on settle: %v %v", ej2.ID, ok)
	}
}

func TestSettleRaceWithCancel(t *testing.T) {
	m := externalManager(t, Options{})
	snap, _ := m.Submit(mcSpec(1, 0))
	if _, ok := m.ClaimExternal("w1"); !ok {
		t.Fatal("claim failed")
	}
	if err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	if m.JobActive(snap.ID) {
		t.Fatal("canceled job still active")
	}
	// Settle calls after the cancel must not resurrect the job.
	if err := m.CompleteExternal(snap.ID, json.RawMessage(`{}`)); err == nil {
		t.Fatal("complete after cancel should fail")
	}
	if got, _ := m.Get(snap.ID); got.State != StateCanceled {
		t.Fatalf("state %s", got.State)
	}
}

func TestExternalCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := externalManager(t, Options{Dir: dir})
	snap, _ := m.Submit(mcSpec(1, 0))
	if _, ok := m.ClaimExternal("w1"); !ok {
		t.Fatal("claim failed")
	}
	if err := m.SaveExternalCheckpoint(snap.ID, []byte(`{"reps_done":9}`)); err != nil {
		t.Fatal(err)
	}
	// A restarted coordinator requeues the job and its next claim hands
	// the persisted checkpoint back.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	m = externalManager(t, Options{Dir: dir})
	ej, ok := m.ClaimExternal("w2")
	if !ok || ej.ID != snap.ID || string(ej.Checkpoint) != `{"reps_done":9}` {
		t.Fatalf("reclaim %v checkpoint %q (ok=%v)", ej.ID, ej.Checkpoint, ok)
	}
	// Completion removes the checkpoint alongside the pending spec.
	if err := m.CompleteExternal(snap.ID, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, snap.ID)
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", snap.ID+".ckpt")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not cleaned up: %v", err)
	}
}

func TestDrainInterruptsLeasedJobs(t *testing.T) {
	dir := t.TempDir()
	m := externalManager(t, Options{Dir: dir})
	snap, _ := m.Submit(mcSpec(1, 0))
	if _, ok := m.ClaimExternal("w1"); !ok {
		t.Fatal("claim failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Get(snap.ID); got.State != StateInterrupted {
		t.Fatalf("drained leased job state %s", got.State)
	}
	// The pending spec survived, so a restarted manager requeues it.
	if _, err := os.Stat(filepath.Join(dir, "pending", snap.ID+".json")); err != nil {
		t.Fatalf("pending spec lost on drain: %v", err)
	}
}

func TestWriteProbe(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, Options{Dir: dir, Runners: map[string]Runner{config.KindReliability: nil}})
	if err := m.WriteProbe(); err != nil {
		t.Fatalf("healthy dir probe failed: %v", err)
	}
	// Flip the pending dir read-only; the cached verdict holds until the
	// TTL lapses, then the probe reports the failure.
	pending := filepath.Join(dir, "pending")
	if err := os.Chmod(pending, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(pending, 0o755)
	if os.Getuid() == 0 {
		t.Skip("running as root: chmod cannot make the dir unwritable")
	}
	if err := m.WriteProbe(); err != nil {
		t.Fatal("probe result should be cached inside the TTL")
	}
	time.Sleep(writeProbeTTL + 100*time.Millisecond)
	if err := m.WriteProbe(); err == nil {
		t.Fatal("probe should fail on read-only state dir")
	}
}

func TestWriteProbeNoDir(t *testing.T) {
	m := externalManager(t, Options{})
	if err := m.WriteProbe(); err != nil {
		t.Fatalf("dirless manager must probe clean: %v", err)
	}
}
