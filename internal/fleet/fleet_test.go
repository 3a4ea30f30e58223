package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// fakeBackend is an in-memory scheduler for lease edge-case tests.
type fakeBackend struct {
	mu          sync.Mutex
	queue       []jobs.ExternalJob
	active      map[string]bool
	completed   map[string]json.RawMessage
	failed      map[string]string
	checkpoints map[string][]byte
	notes       map[string][]string
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		active:      make(map[string]bool),
		completed:   make(map[string]json.RawMessage),
		failed:      make(map[string]string),
		checkpoints: make(map[string][]byte),
		notes:       make(map[string][]string),
	}
}

func (b *fakeBackend) enqueue(id string, spec config.Spec, ckpt []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.queue = append(b.queue, jobs.ExternalJob{ID: id, Spec: spec, Checkpoint: ckpt})
}

func (b *fakeBackend) ClaimExternal(worker string) (jobs.ExternalJob, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		return jobs.ExternalJob{}, false
	}
	j := b.queue[0]
	b.queue = b.queue[1:]
	b.active[j.ID] = true
	return j, true
}

func (b *fakeBackend) CompleteExternal(id string, result json.RawMessage) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.active[id] {
		return jobs.ErrNotLeased
	}
	if _, dup := b.completed[id]; dup {
		return fmt.Errorf("double completion of %s", id)
	}
	b.completed[id] = result
	b.active[id] = false
	return nil
}

func (b *fakeBackend) FailExternal(id, msg string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed[id] = msg
	b.active[id] = false
	return nil
}

func (b *fakeBackend) JobActive(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.active[id]
}

func (b *fakeBackend) cancel(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.active[id] = false
}

func (b *fakeBackend) PublishExternal(id, note string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.notes[id] = append(b.notes[id], note)
}

func (b *fakeBackend) SaveExternalCheckpoint(id string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.checkpoints[id] = append([]byte(nil), data...)
	return nil
}

func (b *fakeBackend) result(id string) (json.RawMessage, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.completed[id]
	return r, ok
}

// clock is a manual test clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1_000_000, 0)} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testSpec() config.Spec {
	return config.Spec{Kind: "reliability"}
}

// shard2 plans every job into two shards.
func shard2(spec config.Spec, workers int) []ShardSpec {
	return []ShardSpec{{Index: 0, Count: 2, Lo: 0, Hi: 50}, {Index: 1, Count: 2, Lo: 50, Hi: 100}}
}

// concatMerge concatenates shard payloads (stands in for the real
// fold-in-order merge).
func concatMerge(spec config.Spec, parts []json.RawMessage) (json.RawMessage, error) {
	out := []byte("[")
	for i, p := range parts {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, p...)
	}
	return append(out, ']'), nil
}

func newTestCoordinator(b *fakeBackend, clk *clock, sharded bool) *Coordinator {
	opt := Options{
		Backend:  b,
		LeaseTTL: 10 * time.Second,
		Now:      clk.now,
	}
	if sharded {
		opt.Planner = shard2
		opt.Merger = concatMerge
	}
	return New(opt)
}

func TestWholeJobClaimCompleteRoundTrip(t *testing.T) {
	b, clk := newFakeBackend(), newClock()
	c := newTestCoordinator(b, clk, false)
	b.enqueue("j1", testSpec(), nil)

	a, err := c.Claim("w1")
	if err != nil || a == nil {
		t.Fatalf("claim: %v %v", a, err)
	}
	if a.Shard != nil {
		t.Fatal("unplanned job should claim whole")
	}
	if a.LeaseTTLMs != 10000 {
		t.Fatalf("lease ttl %d", a.LeaseTTLMs)
	}
	if err := c.Complete(CompleteRequest{Worker: "w1", Lease: a.Lease, Result: json.RawMessage(`{"ok":1}`)}); err != nil {
		t.Fatal(err)
	}
	if r, ok := b.result("j1"); !ok || string(r) != `{"ok":1}` {
		t.Fatalf("result not settled: %q %v", r, ok)
	}
	if c.LeasesActive() != 0 {
		t.Fatal("lease not released on complete")
	}
}

// Renew racing expiry: a renewal that lands before the expiry tick
// keeps the lease; one that lands after loses it, and the unit has
// already been requeued exactly once.
func TestRenewRacesExpiry(t *testing.T) {
	b, clk := newFakeBackend(), newClock()
	c := newTestCoordinator(b, clk, false)
	b.enqueue("j1", testSpec(), nil)
	a, _ := c.Claim("w1")

	// Renewal just inside the TTL extends the lease…
	clk.advance(9 * time.Second)
	if err := c.Renew(RenewRequest{Worker: "w1", Lease: a.Lease}); err != nil {
		t.Fatalf("in-TTL renew rejected: %v", err)
	}
	// …so the expiry scan 9s later (18s after claim, 9s after renew)
	// must NOT reclaim it.
	clk.advance(9 * time.Second)
	c.ExpireTick()
	if err := c.Renew(RenewRequest{Worker: "w1", Lease: a.Lease}); err != nil {
		t.Fatalf("renewed lease expired anyway: %v", err)
	}

	// Now go silent past the TTL: the tick reclaims, the late renew is
	// rejected, and the job is pending again.
	clk.advance(11 * time.Second)
	c.ExpireTick()
	if err := c.Renew(RenewRequest{Worker: "w1", Lease: a.Lease}); err != ErrLeaseExpired {
		t.Fatalf("expected ErrLeaseExpired, got %v", err)
	}
	st := c.Status()
	if st.Expirations != 1 || st.Requeues != 1 {
		t.Fatalf("expirations %d requeues %d", st.Expirations, st.Requeues)
	}
	// The reclaimed unit re-leases to another worker.
	a2, err := c.Claim("w2")
	if err != nil || a2 == nil {
		t.Fatalf("reclaim failed: %v %v", a2, err)
	}
	if a2.Job != "j1" {
		t.Fatalf("reclaim got %s", a2.Job)
	}
}

// Double-claim of the same shard must be impossible: two workers get
// the two distinct shards, a third gets nothing, and after one lease
// expires exactly that shard (and only it) is claimable again.
func TestNoDoubleClaimOfShard(t *testing.T) {
	b, clk := newFakeBackend(), newClock()
	c := newTestCoordinator(b, clk, true)
	b.enqueue("j1", testSpec(), nil)

	a1, _ := c.Claim("w1")
	a2, _ := c.Claim("w2")
	if a1 == nil || a2 == nil || a1.Shard == nil || a2.Shard == nil {
		t.Fatalf("expected two shard claims: %v %v", a1, a2)
	}
	if a1.Shard.Index == a2.Shard.Index {
		t.Fatalf("same shard leased twice: %d", a1.Shard.Index)
	}
	if a3, _ := c.Claim("w3"); a3 != nil {
		t.Fatalf("third claim should find nothing, got shard %v", a3.Shard)
	}

	// w1 goes silent; only its shard is reclaimable.
	clk.advance(11 * time.Second)
	c.Renew(RenewRequest{Worker: "w2", Lease: a2.Lease}) // keep w2 alive? (renew after expiry window)
	c.ExpireTick()
	a4, _ := c.Claim("w3")
	if a4 == nil || a4.Shard == nil || a4.Shard.Index != a1.Shard.Index {
		t.Fatalf("reclaim should hand back shard %d, got %v", a1.Shard.Index, a4)
	}
	if a5, _ := c.Claim("w4"); a5 != nil {
		t.Fatal("both shards leased again; nothing should remain")
	}
}

// A worker completing after its lease expired must never double-count:
// if the re-run already delivered, the late result is verified against
// it; either way the merge sees each shard exactly once.
func TestLateCompletionIdempotentlyDropped(t *testing.T) {
	b, clk := newFakeBackend(), newClock()
	c := newTestCoordinator(b, clk, true)
	b.enqueue("j1", testSpec(), nil)

	a1, _ := c.Claim("w1") // shard 0
	a2, _ := c.Claim("w2") // shard 1

	// w1's lease expires; w3 reclaims shard 0 and completes it.
	clk.advance(11 * time.Second)
	c.ExpireTick()
	a3, _ := c.Claim("w3")
	if a3 == nil || a3.Shard.Index != a1.Shard.Index {
		t.Fatalf("reclaim mismatch: %v", a3)
	}
	if err := c.Complete(CompleteRequest{Worker: "w3", Lease: a3.Lease, Result: json.RawMessage(`"s0"`)}); err != nil {
		t.Fatal(err)
	}

	// The zombie w1 now delivers the same shard — identical bytes,
	// since shards are deterministic. It must be rejected with
	// ErrLeaseExpired and not merged twice.
	if err := c.Complete(CompleteRequest{Worker: "w1", Lease: a1.Lease, Result: json.RawMessage(`"s0"`)}); err != ErrLeaseExpired {
		t.Fatalf("late completion accepted: %v", err)
	}
	st := c.Status()
	if st.LateResults != 1 {
		t.Fatalf("late results %d", st.LateResults)
	}

	// Renew from w2 (also expired above) is rejected; its shard re-runs.
	if err := c.Renew(RenewRequest{Worker: "w2", Lease: a2.Lease}); err != ErrLeaseExpired {
		t.Fatalf("zombie renew accepted: %v", err)
	}
	a4, _ := c.Claim("w3")
	if a4 == nil || a4.Shard.Index != a2.Shard.Index {
		t.Fatalf("shard 1 not reclaimable: %v", a4)
	}
	if err := c.Complete(CompleteRequest{Worker: "w3", Lease: a4.Lease, Result: json.RawMessage(`"s1"`)}); err != nil {
		t.Fatal(err)
	}
	r, ok := b.result("j1")
	if !ok {
		t.Fatal("job not settled after all shards")
	}
	if string(r) != `["s0","s1"]` {
		t.Fatalf("merged result %q — a shard was double-counted or lost", r)
	}
}

// Graceful abandon (worker drain) requeues immediately, without
// waiting out the TTL, and ships the final checkpoint.
func TestAbandonRequeuesImmediatelyWithCheckpoint(t *testing.T) {
	b, clk := newFakeBackend(), newClock()
	c := newTestCoordinator(b, clk, false)
	b.enqueue("j1", testSpec(), nil)
	a, _ := c.Claim("w1")

	if err := c.Renew(RenewRequest{Worker: "w1", Lease: a.Lease, Abandon: true, Checkpoint: []byte(`{"reps_done":40}`)}); err != nil {
		t.Fatal(err)
	}
	if string(b.checkpoints["j1"]) != `{"reps_done":40}` {
		t.Fatalf("checkpoint not persisted: %q", b.checkpoints["j1"])
	}
	a2, _ := c.Claim("w2")
	if a2 == nil || a2.Job != "j1" {
		t.Fatalf("abandoned job not immediately reclaimable: %v", a2)
	}
	st := c.Status()
	if st.Requeues != 1 || st.Expirations != 0 {
		t.Fatalf("abandon should requeue without an expiration: %+v", st)
	}
}

// A canceled job tears down its leases: the worker's next renew gets
// 410 and no settle call reaches the backend.
func TestCancelInvalidatesLease(t *testing.T) {
	b, clk := newFakeBackend(), newClock()
	c := newTestCoordinator(b, clk, false)
	b.enqueue("j1", testSpec(), nil)
	a, _ := c.Claim("w1")

	b.cancel("j1")
	if err := c.Renew(RenewRequest{Worker: "w1", Lease: a.Lease}); err != ErrLeaseExpired {
		t.Fatalf("renew of canceled job: %v", err)
	}
	if err := c.Complete(CompleteRequest{Worker: "w1", Lease: a.Lease, Result: json.RawMessage(`1`)}); err != ErrLeaseExpired {
		t.Fatalf("complete of canceled job: %v", err)
	}
	if _, ok := b.result("j1"); ok {
		t.Fatal("canceled job settled")
	}
}

// Checkpoint shipped by heartbeat is handed to the next claimant after
// expiry — whole-job failover.
func TestExpiryHandsBackShippedCheckpoint(t *testing.T) {
	b, clk := newFakeBackend(), newClock()
	c := newTestCoordinator(b, clk, false)
	b.enqueue("j1", testSpec(), nil)
	a, _ := c.Claim("w1")
	if err := c.Renew(RenewRequest{Worker: "w1", Lease: a.Lease, Checkpoint: []byte(`{"reps_done":500}`)}); err != nil {
		t.Fatal(err)
	}
	clk.advance(11 * time.Second)
	c.ExpireTick()

	// The fake backend hands checkpoints back through ClaimExternal on
	// requeue; the real manager reads the persisted file. Simulate the
	// requeue → re-claim hop.
	if string(b.checkpoints["j1"]) != `{"reps_done":500}` {
		t.Fatalf("heartbeat checkpoint not persisted: %q", b.checkpoints["j1"])
	}
}

// An errored unit fails the whole job (determinism: the retry would
// fail identically).
func TestShardErrorFailsJob(t *testing.T) {
	b, clk := newFakeBackend(), newClock()
	c := newTestCoordinator(b, clk, true)
	b.enqueue("j1", testSpec(), nil)
	a, _ := c.Claim("w1")
	if err := c.Complete(CompleteRequest{Worker: "w1", Lease: a.Lease, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if b.failed["j1"] != "boom" {
		t.Fatalf("job not failed: %q", b.failed["j1"])
	}
	if a2, _ := c.Claim("w2"); a2 != nil {
		t.Fatalf("failed job still claimable: %v", a2)
	}
}

// Zero workers: claims return nil work, the status reports degraded,
// and a worker appearing later clears it.
func TestDegradedWithZeroWorkers(t *testing.T) {
	b, clk := newFakeBackend(), newClock()
	c := newTestCoordinator(b, clk, false)
	st := c.Status()
	if !st.Degraded || st.WorkersLive != 0 {
		t.Fatalf("fresh coordinator should be degraded: %+v", st)
	}
	c.Register("w1")
	st = c.Status()
	if st.Degraded || st.WorkersLive != 1 {
		t.Fatalf("live worker should clear degraded: %+v", st)
	}
	// Silence past the TTL re-degrades.
	clk.advance(11 * time.Second)
	st = c.Status()
	if !st.Degraded {
		t.Fatal("silent worker still counted live")
	}
}

// A resumable job (checkpoint attached) claims whole even when a
// planner is installed: sharding would discard the recovery state.
func TestCheckpointedJobClaimsWhole(t *testing.T) {
	b, clk := newFakeBackend(), newClock()
	c := newTestCoordinator(b, clk, true)
	b.enqueue("j1", testSpec(), []byte(`{"reps_done":7}`))
	a, _ := c.Claim("w1")
	if a == nil || a.Shard != nil {
		t.Fatalf("checkpointed job should claim whole: %v", a)
	}
	if string(a.Checkpoint) != `{"reps_done":7}` {
		t.Fatalf("checkpoint not handed to claimant: %q", a.Checkpoint)
	}
}

func TestStatusShardBookkeeping(t *testing.T) {
	b, clk := newFakeBackend(), newClock()
	c := newTestCoordinator(b, clk, true)
	b.enqueue("j1", testSpec(), nil)
	a1, _ := c.Claim("w1")
	c.Complete(CompleteRequest{Worker: "w1", Lease: a1.Lease, Result: json.RawMessage(`"s0"`)})
	st := c.Status()
	if len(st.Jobs) != 1 {
		t.Fatalf("jobs %v", st.Jobs)
	}
	j := st.Jobs[0]
	if j.Shards != 2 || j.Done != 1 || j.Pending != 1 || j.Leased != 0 {
		t.Fatalf("bookkeeping: %+v", j)
	}
}

// TestCoordinatorRunLoopAndTelemetry drives the real-clock Run loop:
// a claimed lease whose worker goes silent is reclaimed by the ticker,
// and the fleet-health series flows into the telemetry hub.
func TestCoordinatorRunLoopAndTelemetry(t *testing.T) {
	hub, err := telemetry.New(telemetry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := newFakeBackend()
	c := New(Options{
		Backend:   b,
		LeaseTTL:  60 * time.Millisecond,
		Heartbeat: 15 * time.Millisecond,
		Telemetry: hub,
	})
	if c.LeaseTTL() != 60*time.Millisecond || c.Heartbeat() != 15*time.Millisecond {
		t.Fatalf("timing getters: %v %v", c.LeaseTTL(), c.Heartbeat())
	}

	c.Register("w1")
	if c.WorkersLive() != 1 {
		t.Fatalf("WorkersLive = %d", c.WorkersLive())
	}
	b.enqueue("j1", testSpec(), nil)
	a, err := c.Claim("w1")
	if err != nil || a == nil {
		t.Fatalf("claim: %v %v", a, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)

	// w1 never renews: the run loop must expire the lease and requeue.
	deadline := time.Now().Add(5 * time.Second)
	for c.Status().Expirations == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run loop never expired the silent lease")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := c.Status(); st.Requeues < 1 {
		t.Fatalf("requeues = %d, want ≥ 1", st.Requeues)
	}
	// The reclaimed unit is immediately claimable by another worker.
	if a2, err := c.Claim("w2"); err != nil || a2 == nil || a2.Job != "j1" {
		t.Fatalf("reclaim after expiry: %+v %v", a2, err)
	}

	// The hub has the fleet series with the gauge/counter families.
	qr, err := hub.Query("fleet", 0, 0)
	if err != nil || len(qr.Samples) == 0 {
		t.Fatalf("fleet series missing: %v", err)
	}
	last := qr.Samples[len(qr.Samples)-1]
	if _, ok := last.Gauges["fleet_leases_active"]; !ok {
		t.Fatalf("sample gauges = %v", last.Gauges)
	}
	var exp float64
	for _, s := range qr.Samples {
		exp += s.Counters["fleet_lease_expirations_total"]
	}
	if exp < 1 {
		t.Fatalf("expirations counter never flowed: %+v", qr.Samples)
	}
}
