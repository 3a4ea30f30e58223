package jobs

// The weighted-fair-queueing wall. Two behaviors are pinned here:
//
//  1. Single tenant: the WFQ pop order is bit-identical to the
//     pre-tenancy scheduler (highest priority first, FIFO within a
//     priority, class-limited kinds skipped) — checked both against a
//     verbatim copy of the legacy selection scan over randomized
//     workloads and end-to-end through a sequential manager.
//  2. Multi-tenant: a tenant flooding the queue cannot starve another —
//     with equal weights dispatch alternates 1:1, with weight w the
//     ratio is w:1, asserted deterministically.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
)

// legacyPick is a verbatim copy of the pre-WFQ dispatch scan: best
// (priority, seq) among eligible jobs. It is the oracle the
// single-tenant WFQ order is pinned against.
func legacyPick(queue []*job, eligible func(*job) bool) int {
	idx := -1
	for i, j := range queue {
		if !eligible(j) {
			continue
		}
		if idx < 0 || j.priority > queue[idx].priority ||
			(j.priority == queue[idx].priority && j.seq < queue[idx].seq) {
			idx = i
		}
	}
	return idx
}

// TestWFQSingleTenantMatchesLegacyOrder drains randomized single-tenant
// workloads through both the WFQ and the legacy scan, with class limits
// flipping eligibility between pops, and requires identical pop
// sequences.
func TestWFQSingleTenantMatchesLegacyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []string{"a", "b", "c"}
	for trial := 0; trial < 200; trial++ {
		q := newWFQ(nil)
		var legacy []*job
		var seq uint64
		n := 1 + rng.Intn(24)
		for i := 0; i < n; i++ {
			seq++
			j := &job{
				id:       fmt.Sprintf("j%d", seq),
				kind:     kinds[rng.Intn(len(kinds))],
				priority: rng.Intn(4),
				seq:      seq,
			}
			q.push(j)
			legacy = append(legacy, j)
		}
		// Class limits flip pseudo-randomly between pops, exercising the
		// skip path the same way a running mix does.
		for len(legacy) > 0 {
			blocked := map[string]bool{}
			for _, k := range kinds {
				if rng.Intn(3) == 0 {
					blocked[k] = true
				}
			}
			eligible := func(j *job) bool { return !blocked[j.kind] }
			want := legacyPick(legacy, eligible)
			got := q.pop(eligible)
			if want < 0 {
				if got != nil {
					t.Fatalf("trial %d: legacy found nothing, wfq popped %s", trial, got.id)
				}
				// Everything blocked this round: unblock and continue.
				continue
			}
			wj := legacy[want]
			legacy = append(legacy[:want], legacy[want+1:]...)
			if got == nil || got.id != wj.id {
				t.Fatalf("trial %d: wfq popped %v, legacy wants %s", trial, got, wj.id)
			}
		}
		if q.len() != 0 {
			t.Fatalf("trial %d: %d jobs left in wfq", trial, q.len())
		}
	}
}

// gatedManager builds a single-worker manager whose first job blocks
// until released, so every later submission queues and the dispatch
// order is observed deterministically one job at a time.
func gatedManager(t *testing.T, opt Options, order *[]string, mu *sync.Mutex) (*Manager, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	started := make(chan struct{})
	runner := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		mu.Lock()
		*order = append(*order, fmt.Sprintf("%s/%d", spec.Kind, spec.MC.Seed))
		mu.Unlock()
		return json.RawMessage(`{}`), nil
	}
	blocker := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		close(started)
		<-release
		return json.RawMessage(`{}`), nil
	}
	opt.Workers = 1
	opt.Runners = map[string]Runner{config.KindReliability: runner, config.KindFigure: blocker}
	m := newManager(t, opt)
	if _, err := m.Submit(config.Spec{Kind: config.KindFigure, Figure: &config.FigureSpec{Fig: 6}}); err != nil {
		t.Fatal(err)
	}
	<-started
	return m, release
}

// tenantOrder runs the gated workload to completion and returns the
// recorded dispatch order as tenant names.
func drainGated(t *testing.T, m *Manager, release chan struct{}, submitted int) {
	t.Helper()
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m.QueueDepth() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("queue never drained (%d jobs submitted)", submitted)
}

// TestWFQFairnessInterleave is the acceptance wall: tenant A floods the
// queue with its submissions before tenant B's arrive, yet with equal
// weights the dispatch order strictly alternates A, B, A, B while both
// have work — B is never starved behind A's backlog.
func TestWFQFairnessInterleave(t *testing.T) {
	var mu sync.Mutex
	var order []string
	tenantOf := make(map[string]string) // "kind/seed" → tenant
	m, release := gatedManager(t, Options{MaxQueued: 256}, &order, &mu)

	const floodA, jobsB = 100, 20
	for i := 0; i < floodA; i++ {
		spec := mcSpec(uint64(1000+i), 0)
		if _, err := m.SubmitAs("tenant-a", spec); err != nil {
			t.Fatal(err)
		}
		tenantOf[fmt.Sprintf("%s/%d", spec.Kind, spec.MC.Seed)] = "A"
	}
	for i := 0; i < jobsB; i++ {
		spec := mcSpec(uint64(9000+i), 0)
		if _, err := m.SubmitAs("tenant-b", spec); err != nil {
			t.Fatal(err)
		}
		tenantOf[fmt.Sprintf("%s/%d", spec.Kind, spec.MC.Seed)] = "B"
	}
	drainGated(t, m, release, floodA+jobsB)

	mu.Lock()
	defer mu.Unlock()
	if len(order) != floodA+jobsB {
		t.Fatalf("dispatched %d jobs, want %d", len(order), floodA+jobsB)
	}
	tenants := make([]string, len(order))
	for i, key := range order {
		tenants[i] = tenantOf[key]
	}
	// While both tenants hold queued work (the first 2*jobsB dispatches),
	// the round must alternate strictly: every adjacent pair contains one
	// A and one B. Afterward only A remains.
	for i := 0; i+1 < 2*jobsB; i += 2 {
		pair := tenants[i] + tenants[i+1]
		if pair != "AB" && pair != "BA" {
			t.Fatalf("dispatch %d..%d = %q, want strict 1:1 interleave (full order %v)", i, i+1, pair, tenants[:2*jobsB])
		}
	}
	for i := 2 * jobsB; i < len(tenants); i++ {
		if tenants[i] != "A" {
			t.Fatalf("dispatch %d = %s after B drained, want A", i, tenants[i])
		}
	}
	// And within each tenant, FIFO order held.
	prev := map[string]uint64{}
	for _, key := range order {
		var seed uint64
		fmt.Sscanf(key, "reliability/%d", &seed)
		tn := tenantOf[key]
		if seed < prev[tn] {
			t.Fatalf("tenant %s dispatched seed %d after %d (FIFO broken)", tn, seed, prev[tn])
		}
		prev[tn] = seed
	}
}

// TestWFQWeightedRatio pins the deficit round: weight 2 vs weight 1
// dispatches 2:1 while both tenants have work.
func TestWFQWeightedRatio(t *testing.T) {
	var mu sync.Mutex
	var order []string
	weights := map[string]int{"heavy": 2, "light": 1}
	m, release := gatedManager(t, Options{
		MaxQueued:    256,
		TenantWeight: func(tenant string) int { return weights[tenant] },
	}, &order, &mu)

	tenantOf := make(map[string]string)
	for i := 0; i < 30; i++ {
		spec := mcSpec(uint64(100+i), 0)
		if _, err := m.SubmitAs("heavy", spec); err != nil {
			t.Fatal(err)
		}
		tenantOf[fmt.Sprintf("%s/%d", spec.Kind, spec.MC.Seed)] = "H"
	}
	for i := 0; i < 10; i++ {
		spec := mcSpec(uint64(500+i), 0)
		if _, err := m.SubmitAs("light", spec); err != nil {
			t.Fatal(err)
		}
		tenantOf[fmt.Sprintf("%s/%d", spec.Kind, spec.MC.Seed)] = "L"
	}
	drainGated(t, m, release, 40)

	mu.Lock()
	defer mu.Unlock()
	tenants := make([]string, len(order))
	for i, key := range order {
		tenants[i] = tenantOf[key]
	}
	// While both are active (the first 30 dispatches cover light's 10
	// jobs at 2:1), every group of three is two H and one L.
	for i := 0; i+2 < 30; i += 3 {
		h, l := 0, 0
		for _, tn := range tenants[i : i+3] {
			if tn == "H" {
				h++
			} else {
				l++
			}
		}
		if h != 2 || l != 1 {
			t.Fatalf("dispatches %d..%d = %v, want 2 heavy + 1 light (full %v)", i, i+2, tenants[i:i+3], tenants[:30])
		}
	}
}

// TestQuotaHookRejectsAndPassesErrorThrough proves the admission quota
// hook: its error reaches the caller verbatim, rejected submissions are
// counted, and dedup/cache hits bypass the quota entirely.
func TestQuotaHookRejectsAndPassesErrorThrough(t *testing.T) {
	quotaErr := errors.New("tenant over quota")
	deny := false
	var sawQueued, sawRunning int
	m := newManager(t, Options{
		Runners: map[string]Runner{config.KindReliability: instantRunner(new(atomic.Int64))},
		Quota: func(tenant string, queued, running int) error {
			sawQueued, sawRunning = queued, running
			if deny && tenant == "limited" {
				return quotaErr
			}
			return nil
		},
	})
	first, err := m.SubmitAs("limited", mcSpec(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.SubmitAs("limited", mcSpec(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, first.ID)
	waitDone(t, m, snap.ID)

	deny = true
	if _, err := m.SubmitAs("limited", mcSpec(3, 0)); !errors.Is(err, quotaErr) {
		t.Fatalf("err = %v, want the quota error verbatim", err)
	}
	// Dedup of the completed job is a cache hit: no quota consulted.
	sawQueued, sawRunning = -1, -1
	if _, err := m.SubmitAs("limited", mcSpec(2, 0)); err != nil {
		t.Fatalf("cached resubmit hit the quota: %v", err)
	}
	if sawQueued != -1 || sawRunning != -1 {
		t.Fatal("quota hook consulted on a cache hit")
	}
	// Other tenants are unaffected.
	free, err := m.SubmitAs("free", mcSpec(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, free.ID)
}

// TestApplyLimitsLive retunes a running manager: tightening MaxQueued
// rejects the next submit with ErrBusy, loosening it re-admits, and a
// class-limit change alters concurrency without a restart.
func TestApplyLimitsLive(t *testing.T) {
	release := make(chan struct{})
	blocker := func(ctx context.Context, rc RunContext, spec config.Spec) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	}
	m := newManager(t, Options{
		Workers:   2,
		MaxQueued: 8,
		Runners:   map[string]Runner{config.KindReliability: blocker},
	})
	var ids []string
	submit := func(seed uint64) {
		snap, err := m.Submit(mcSpec(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	submit(1)
	submit(2)

	m.ApplyLimits(2, nil)
	if _, err := m.Submit(mcSpec(3, 0)); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy after tightening max-queued to 2", err)
	}
	m.ApplyLimits(8, nil)
	submit(4)

	gotMax, gotLimits := m.Limits()
	if gotMax != 8 || len(gotLimits) != 0 {
		t.Fatalf("Limits() = %d, %v", gotMax, gotLimits)
	}
	m.ApplyLimits(0, map[string]int{config.KindReliability: 1})
	gotMax, gotLimits = m.Limits()
	if gotMax != 8 || gotLimits[config.KindReliability] != 1 {
		t.Fatalf("Limits() after class change = %d, %v", gotMax, gotLimits)
	}

	// Let every admitted job finish before the test's temp dirs are torn
	// down: a runner unblocked mid-cleanup would race its Store.Put
	// against the TempDir RemoveAll.
	close(release)
	for _, id := range ids {
		waitDone(t, m, id)
	}
}

// Limits reports the live admission bound and class limits.
func (m *Manager) Limits() (maxQueued int, classLimits map[string]int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.opt.ClassLimits))
	for k, v := range m.opt.ClassLimits {
		out[k] = v
	}
	return m.opt.MaxQueued, out
}
