package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/store"
)

// mcSpec builds a small distinct Monte-Carlo spec (the seed is the
// distinguisher).
func mcSpec(seed uint64, priority int) config.Spec {
	return config.Spec{
		Kind:     config.KindReliability,
		Priority: priority,
		Router:   &config.RouterSpec{N: 4, M: 2},
		MC:       &config.MCSpec{Seed: seed, Reps: 10},
	}
}

func newStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newManager(t *testing.T, opt Options) *Manager {
	t.Helper()
	if opt.Store == nil {
		opt.Store = newStore(t)
	}
	m, err := NewManager(opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// instantRunner returns a runner that records invocations and returns a
// fixed payload.
func instantRunner(calls *atomic.Int64) Runner {
	return func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		calls.Add(1)
		return json.RawMessage(`{"ok": true}`), nil
	}
}

func waitDone(t *testing.T, m *Manager, id string) Snapshot {
	t.Helper()
	j := m.get(id)
	if j == nil {
		t.Fatalf("waitDone(%s): %v", id, ErrNotFound)
	}
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("waitDone(%s): job did not come to rest", id)
	}
	snap, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestSubmitRunsJob(t *testing.T) {
	var calls atomic.Int64
	m := newManager(t, Options{Runners: map[string]Runner{config.KindReliability: instantRunner(&calls)}})
	snap, err := m.Submit(mcSpec(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.Kind != config.KindReliability {
		t.Fatalf("bad snapshot %+v", snap)
	}
	final := waitDone(t, m, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s, want done (err %q)", final.State, final.Error)
	}
	res, err := m.Result(snap.ID)
	if err != nil || string(res) != `{"ok": true}` {
		t.Fatalf("Result = %s, %v", res, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("runner ran %d times", calls.Load())
	}
}

// TestCacheHitSkipsRecompute is the acceptance criterion: the second
// submit of an identical spec returns the stored result without running
// the solver.
func TestCacheHitSkipsRecompute(t *testing.T) {
	var calls atomic.Int64
	st := newStore(t)
	m := newManager(t, Options{Store: st, Runners: map[string]Runner{config.KindReliability: instantRunner(&calls)}})
	first, err := m.Submit(mcSpec(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, first.ID)

	second, err := m.Submit(mcSpec(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("identical specs got different IDs: %s vs %s", first.ID, second.ID)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second submit: state %s cached %v, want done from cache", second.State, second.Cached)
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times; cache hit must not recompute", calls.Load())
	}
	// Even a fresh manager sharing the store must hit.
	var calls2 atomic.Int64
	m2 := newManager(t, Options{Store: st, Runners: map[string]Runner{config.KindReliability: instantRunner(&calls2)}})
	third, err := m2.Submit(mcSpec(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if third.State != StateDone || !third.Cached || calls2.Load() != 0 {
		t.Fatalf("cross-process cache miss: state %s cached %v calls %d", third.State, third.Cached, calls2.Load())
	}
}

func TestDedupInFlight(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	runner := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		calls.Add(1)
		<-release
		return json.RawMessage(`{}`), nil
	}
	m := newManager(t, Options{Runners: map[string]Runner{config.KindReliability: runner}})
	a, err := m.Submit(mcSpec(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(mcSpec(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("dedup failed: %s vs %s", a.ID, b.ID)
	}
	close(release)
	waitDone(t, m, a.ID)
	if calls.Load() != 1 {
		t.Fatalf("in-flight dedup ran the job %d times", calls.Load())
	}
}

// TestAdmissionControl: submissions past MaxQueued fail with ErrBusy
// instead of growing without bound.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	runner := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	}
	m := newManager(t, Options{
		Workers: 1, MaxQueued: 2,
		Runners: map[string]Runner{config.KindReliability: runner},
	})
	var admitted []string
	for seed := uint64(1); seed <= 2; seed++ {
		snap, err := m.Submit(mcSpec(seed, 0))
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		admitted = append(admitted, snap.ID)
	}
	if _, err := m.Submit(mcSpec(3, 0)); !errors.Is(err, ErrBusy) {
		t.Fatalf("third submit: got %v, want ErrBusy", err)
	}
	close(release)
	for _, id := range admitted {
		waitDone(t, m, id)
	}
	// Slots freed: admission opens again.
	snap, err := m.Submit(mcSpec(3, 0))
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	waitDone(t, m, snap.ID)
}

// TestPriorityOrdering: with one worker, the higher-priority job jumps
// the queue; FIFO breaks ties.
func TestPriorityOrdering(t *testing.T) {
	var mu sync.Mutex
	var order []uint64
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	runner := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		mu.Lock()
		order = append(order, spec.MC.Seed)
		mu.Unlock()
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return json.RawMessage(`{}`), nil
	}
	m := newManager(t, Options{Workers: 1, MaxQueued: 16, Runners: map[string]Runner{config.KindReliability: runner}})
	first, _ := m.Submit(mcSpec(1, 0)) // occupies the worker
	<-started
	m.Submit(mcSpec(2, 0)) // low priority, submitted first
	m.Submit(mcSpec(3, 5)) // high priority, submitted later
	m.Submit(mcSpec(4, 5)) // same priority, later → after 3
	close(gate)
	waitDone(t, m, first.ID)
	for _, s := range m.List() {
		waitDone(t, m, s.ID)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []uint64{1, 3, 4, 2}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestClassLimits: a saturated class must not block other kinds.
func TestClassLimits(t *testing.T) {
	releaseRel := make(chan struct{})
	relRunner := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		<-releaseRel
		return json.RawMessage(`{}`), nil
	}
	var figRan atomic.Int64
	figRunner := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		figRan.Add(1)
		return json.RawMessage(`{}`), nil
	}
	m := newManager(t, Options{
		Workers: 4, MaxQueued: 16,
		ClassLimits: map[string]int{config.KindReliability: 1},
		Runners: map[string]Runner{
			config.KindReliability: relRunner,
			config.KindFigure:      figRunner,
		},
	})
	a, _ := m.Submit(mcSpec(1, 0))
	b, _ := m.Submit(mcSpec(2, 0)) // same class: must wait for a
	fig, err := m.Submit(config.Spec{Kind: config.KindFigure, Figure: &config.FigureSpec{Fig: 6}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, fig.ID)
	if figRan.Load() != 1 {
		t.Fatal("figure job starved behind a saturated class")
	}
	bs, _ := m.Get(b.ID)
	if bs.State != StateQueued {
		t.Fatalf("second class job state %s, want queued while class limit holds", bs.State)
	}
	close(releaseRel)
	waitDone(t, m, a.ID)
	waitDone(t, m, b.ID)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan struct{})
	runner := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	m := newManager(t, Options{Workers: 1, MaxQueued: 8, Runners: map[string]Runner{config.KindReliability: runner}})
	run, _ := m.Submit(mcSpec(1, 0))
	<-started
	queued, _ := m.Submit(mcSpec(2, 0))

	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	qs := waitDone(t, m, queued.ID)
	if qs.State != StateCanceled {
		t.Fatalf("queued cancel: state %s", qs.State)
	}
	if err := m.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	rs := waitDone(t, m, run.ID)
	if rs.State != StateCanceled {
		t.Fatalf("running cancel: state %s (err %q)", rs.State, rs.Error)
	}
	if err := m.Cancel("0000000000000000000000000000000000000000000000000000000000000000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v", err)
	}
}

// TestCancelDuringDispatchHandoff exercises the window where dispatch
// has claimed a job off the queue but execute has not yet marked it
// running. Cancel must defer to execute (finalizing from both sides
// double-closes done and panics); execute must then settle the job as
// canceled without ever starting its runner.
func TestCancelDuringDispatchHandoff(t *testing.T) {
	blockStarted := make(chan struct{})
	release := make(chan struct{})
	blocker := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		close(blockStarted)
		<-release
		return json.RawMessage(`{}`), nil
	}
	var targetRan atomic.Bool
	target := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		targetRan.Store(true)
		return json.RawMessage(`{}`), nil
	}
	m := newManager(t, Options{
		Workers: 1, MaxQueued: 8,
		Runners: map[string]Runner{config.KindReliability: blocker, config.KindFigure: target},
	})
	first, err := m.Submit(mcSpec(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	<-blockStarted
	snap, err := m.Submit(config.Spec{Kind: config.KindFigure, Figure: &config.FigureSpec{Fig: 6}})
	if err != nil {
		t.Fatal(err)
	}

	// Replay dispatch's claim by hand: pop the job from the queue and
	// charge its class, exactly the state between TryGo succeeding and
	// execute taking the lock.
	m.mu.Lock()
	j := m.jobs[snap.ID]
	m.queue.remove(j)
	decTenantLocked(m.queuedT, j.tenant)
	m.running[j.kind]++
	m.runningT[j.tenant]++
	m.mu.Unlock()

	if err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.done:
		t.Fatal("Cancel finalized a claimed job; execute would double-close done")
	default:
	}

	m.execute(j, target, 1)
	final := waitDone(t, m, snap.ID)
	if final.State != StateCanceled {
		t.Fatalf("state %s, want canceled", final.State)
	}
	if targetRan.Load() {
		t.Fatal("canceled job's runner ran")
	}
	close(release)
	waitDone(t, m, first.ID)
}

// TestRecoverWaivesAdmissionBound: restarting with a MaxQueued lower
// than the persisted backlog must still boot and requeue every pending
// spec instead of refusing to start with ErrBusy.
func TestRecoverWaivesAdmissionBound(t *testing.T) {
	dir := t.TempDir()
	st := newStore(t)
	blocking := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		<-ctx.Done()
		return json.RawMessage(`{}`), nil
	}
	m := newManager(t, Options{Dir: dir, Store: st, MaxQueued: 8,
		Runners: map[string]Runner{config.KindReliability: blocking}})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		snap, err := m.Submit(mcSpec(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Three pending specs on disk; the restarted manager admits one at a
	// time and its first recovered job holds the only slot.
	gate := make(chan struct{})
	slow := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		<-gate
		return json.RawMessage(`{}`), nil
	}
	m2 := newManager(t, Options{Dir: dir, Store: st, MaxQueued: 1,
		Runners: map[string]Runner{config.KindReliability: slow}})
	if got := len(m2.List()); got != 3 {
		t.Fatalf("recovered %d jobs, want 3", got)
	}
	close(gate)
	for _, id := range ids {
		if s := waitDone(t, m2, id); s.State != StateDone {
			t.Fatalf("recovered job %s state %s (err %q)", id, s.State, s.Error)
		}
	}
}

// TestBusyRefusalSkipsQuotaHook: the global admission bound is checked
// before the tenant quota hook, so a submission bounced with ErrBusy
// never consumes a tenant rate token or counts as an admitted submit.
func TestBusyRefusalSkipsQuotaHook(t *testing.T) {
	var calls int
	m := externalManager(t, Options{MaxQueued: 1,
		Quota: func(tenant string, queued, running int) error {
			calls++
			return nil
		},
	})
	if _, err := m.Submit(mcSpec(1, 0)); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("quota consulted %d times after one admit, want 1", calls)
	}
	if _, err := m.Submit(mcSpec(2, 0)); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if calls != 1 {
		t.Fatal("quota hook consulted for a submission refused by the global bound")
	}
}

// TestRecoverSweepsOrphanOwnerSidecars: a crash between the owner
// sidecar write and the spec rename leaves a .owner with no .json;
// recovery sweeps it rather than letting it linger and mis-attribute a
// future submission of the same content-addressed ID.
func TestRecoverSweepsOrphanOwnerSidecars(t *testing.T) {
	dir := t.TempDir()
	pending := filepath.Join(dir, pendingDirName)
	if err := os.MkdirAll(pending, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(pending, "deadbeef.owner")
	if err := os.WriteFile(orphan, []byte("acme\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	newManager(t, Options{Dir: dir,
		Runners: map[string]Runner{config.KindReliability: instantRunner(new(atomic.Int64))}})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan sidecar not swept (stat err: %v)", err)
	}
}

func TestRunnerPanicFailsJob(t *testing.T) {
	runner := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		panic("kaboom")
	}
	m := newManager(t, Options{Runners: map[string]Runner{config.KindReliability: runner}})
	snap, _ := m.Submit(mcSpec(1, 0))
	final := waitDone(t, m, snap.ID)
	if final.State != StateFailed {
		t.Fatalf("state %s, want failed", final.State)
	}
	if final.Error == "" {
		t.Fatal("failed job lost its error")
	}
}

func TestUnknownKindRejected(t *testing.T) {
	m := newManager(t, Options{Runners: map[string]Runner{}})
	if _, err := m.Submit(mcSpec(1, 0)); !errors.Is(err, ErrNoRunner) {
		t.Fatalf("got %v, want ErrNoRunner", err)
	}
}

// TestDrainAndRecover: drain interrupts a running job (its checkpoint
// and pending spec survive); a new manager over the same dir requeues
// and finishes it.
func TestDrainAndRecover(t *testing.T) {
	dir := t.TempDir()
	st := newStore(t)
	started := make(chan struct{})
	blocking := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		// Simulate a checkpointing engine: persist state, then yield a
		// partial result with no error on cancellation.
		os.WriteFile(rc.CheckpointPath, []byte(`{"reps_done": 5}`), 0o644)
		close(started)
		<-ctx.Done()
		return json.RawMessage(`{"partial": true}`), nil
	}
	m := newManager(t, Options{Dir: dir, Store: st, Runners: map[string]Runner{config.KindReliability: blocking}})
	snap, err := m.Submit(mcSpec(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Get(snap.ID)
	if got.State != StateInterrupted {
		t.Fatalf("after drain: state %s, want interrupted", got.State)
	}
	if _, err := m.Submit(mcSpec(10, 0)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
	if st.Has(snap.ID) {
		t.Fatal("drained job must not have stored a partial result")
	}

	// Restart: the pending spec requeues, the checkpoint is offered to
	// the runner, and the job completes.
	var sawCheckpoint atomic.Bool
	finishing := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		if b, err := os.ReadFile(rc.CheckpointPath); err == nil && len(b) > 0 {
			sawCheckpoint.Store(true)
		}
		return json.RawMessage(`{"resumed": true}`), nil
	}
	m2 := newManager(t, Options{Dir: dir, Store: st, Runners: map[string]Runner{config.KindReliability: finishing}})
	final := waitDone(t, m2, snap.ID)
	if final.State != StateDone {
		t.Fatalf("recovered job state %s (err %q)", final.State, final.Error)
	}
	if !final.Resumed {
		t.Fatal("recovered job not marked resumed")
	}
	if !sawCheckpoint.Load() {
		t.Fatal("recovered job did not see its checkpoint")
	}
	res, err := m2.Result(snap.ID)
	if err != nil || string(res) != `{"resumed": true}` {
		t.Fatalf("recovered result %s, %v", res, err)
	}
	// Terminal cleanup: nothing left to requeue.
	m3 := newManager(t, Options{Dir: dir, Store: st, Runners: map[string]Runner{config.KindReliability: finishing}})
	if got := m3.List(); len(got) != 0 {
		t.Fatalf("third boot requeued %d jobs, want 0", len(got))
	}
}

// TestRecoverRemovesSatisfiedPendingFiles: a crash after a job's result
// landed in the store but before its cleanup leaves its pending spec,
// owner sidecar and checkpoint behind. Recovery serves the job as a
// cache hit for its owner and removes all three files, so no later
// boot requeues it.
func TestRecoverRemovesSatisfiedPendingFiles(t *testing.T) {
	dir := t.TempDir()
	st := newStore(t)
	spec := mcSpec(11, 0)
	id, err := spec.JobID()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(id, []byte(`{"ok": true}`)); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		filepath.Join(dir, "pending", id+".json"):     data,
		filepath.Join(dir, "pending", id+".owner"):    []byte("acme\n"),
		filepath.Join(dir, "checkpoints", id+".ckpt"): []byte(`{"reps_done": 3}`),
	}
	for path, b := range files {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var calls atomic.Int64
	m := newManager(t, Options{Dir: dir, Store: st, Runners: map[string]Runner{config.KindReliability: instantRunner(&calls)}})
	snap, err := m.Get(id)
	if err != nil || snap.State != StateDone || !snap.Cached || snap.Tenant != "acme" {
		t.Fatalf("recovered job %+v, %v; want a cache hit owned by acme", snap, err)
	}
	if calls.Load() != 0 {
		t.Fatal("recovery reran a job whose result was stored")
	}
	for path := range files {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s survived recovery: %v", path, err)
		}
	}
}

func TestSubscribeSeesTransitions(t *testing.T) {
	release := make(chan struct{})
	runner := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		rc.Progress("halfway")
		<-release
		return json.RawMessage(`{}`), nil
	}
	m := newManager(t, Options{Runners: map[string]Runner{config.KindReliability: runner}})
	snap, _ := m.Submit(mcSpec(5, 0))
	ch, cancel, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	close(release)
	waitDone(t, m, snap.ID)

	var states []State
	var notes []string
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-ch:
			states = append(states, ev.State)
			if ev.Note != "" {
				notes = append(notes, ev.Note)
			}
			if ev.State == StateDone {
				if states[len(states)-1] != StateDone {
					t.Fatalf("states %v", states)
				}
				return
			}
		case <-deadline:
			t.Fatalf("no done event; saw states %v notes %v", states, notes)
		}
	}
}

func TestQueueSustains64ConcurrentJobs(t *testing.T) {
	var calls atomic.Int64
	m := newManager(t, Options{
		Workers: 8, MaxQueued: 128,
		Runners: map[string]Runner{config.KindReliability: instantRunner(&calls)},
	})
	var wg sync.WaitGroup
	ids := make([]string, 64)
	errs := make([]error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, err := m.Submit(mcSpec(uint64(i+1), i%3))
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = snap.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for _, id := range ids {
		if s := waitDone(t, m, id); s.State != StateDone {
			t.Fatalf("job %s state %s", id, s.State)
		}
	}
	if calls.Load() != 64 {
		t.Fatalf("ran %d jobs, want 64", calls.Load())
	}
}

// TestDispatchGrantsIdleSlots: on a 2-slot pool a lone job may use both
// slots, while a job dispatched next to a running job or ahead of a
// queued one gets one.
func TestDispatchGrantsIdleSlots(t *testing.T) {
	var mu sync.Mutex
	granted := map[uint64]int{}
	release := make(chan struct{})
	const blocker = 2
	runner := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		mu.Lock()
		granted[spec.MC.Seed] = rc.Workers
		mu.Unlock()
		if spec.MC.Seed == blocker {
			<-release
		}
		return json.RawMessage(`{}`), nil
	}
	m := newManager(t, Options{Workers: 2, Runners: map[string]Runner{config.KindReliability: runner}})
	grant := func(seed uint64) int {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		w, ok := granted[seed]
		if !ok {
			t.Fatalf("job %d never ran", seed)
		}
		return w
	}
	submit := func(seed uint64) string {
		t.Helper()
		snap, err := m.Submit(mcSpec(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		return snap.ID
	}

	waitDone(t, m, submit(1))
	if w := grant(1); w != 2 {
		t.Fatalf("lone job granted %d slots, want 2", w)
	}

	running := submit(blocker)
	waitDone(t, m, submit(3))
	if w := grant(3); w != 1 {
		t.Fatalf("job next to a running one granted %d slots, want 1", w)
	}
	close(release)
	waitDone(t, m, running)

	// Hold two jobs in the queue behind a class limit of 0, then lift it:
	// the first is dispatched while the second still waits.
	m.ApplyLimits(0, map[string]int{config.KindReliability: 0})
	first, second := submit(4), submit(5)
	m.ApplyLimits(0, nil)
	waitDone(t, m, first)
	waitDone(t, m, second)
	if w := grant(4); w != 1 {
		t.Fatalf("job dispatched ahead of a queued one granted %d slots, want 1", w)
	}
}

// TestLateOwnerWriteSkipsSettledJob: an attach's sidecar rewrite that
// reaches the disk after its job settled writes nothing, so no orphan
// sidecar outlives unpersist, and a job resubmitted under the same ID
// keeps its own submitters.
func TestLateOwnerWriteSkipsSettledJob(t *testing.T) {
	failing := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		return nil, errors.New("boom")
	}
	m := newManager(t, Options{Dir: t.TempDir(), Runners: map[string]Runner{config.KindReliability: failing}})
	snap, err := m.SubmitAs("a", mcSpec(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s := waitDone(t, m, snap.ID); s.State != StateFailed {
		t.Fatalf("state %s, want failed", s.State)
	}
	// unpersist runs just after the job settles.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(m.pendingPath(snap.ID)); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("settled job's pending spec never removed")
		}
	}
	old := m.get(snap.ID)
	m.mu.Lock()
	old.addSubmitter("b")
	m.mu.Unlock()
	if err := m.writeOwners(old); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(m.ownerPath(snap.ID)); !os.IsNotExist(err) {
		t.Fatalf("settled job's sidecar rewritten (stat err %v)", err)
	}

	// A resubmit by another tenant queues a new job under the ID.
	m.ApplyLimits(0, map[string]int{config.KindReliability: 0})
	if _, err := m.SubmitAs("c", mcSpec(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.writeOwners(old); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(m.ownerPath(snap.ID)); err != nil || string(data) != "c\n" {
		t.Fatalf("resubmitted job's sidecar = %q (err %v), want \"c\\n\"", data, err)
	}
}
