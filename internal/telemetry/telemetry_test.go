package telemetry

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/store"
)

func newTestHub(t *testing.T, opt Options) *Hub {
	t.Helper()
	h, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

func push(t *testing.T, h *Hub, job string, window uint64, mut ...func(*Sample)) {
	t.Helper()
	s := Sample{Job: job, Kind: "observatory", Window: window, UnixMs: int64(window) * 10}
	for _, f := range mut {
		f(&s)
	}
	if err := h.Ingest(s); err != nil && !errors.Is(err, ErrStale) {
		t.Fatalf("Ingest(%s, %d): %v", job, window, err)
	}
}

func TestIngestQueryPagination(t *testing.T) {
	h := newTestHub(t, Options{})
	for w := uint64(10); w <= 100; w += 10 {
		push(t, h, "job1", w)
	}
	res, err := h.Query("job1", 0, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Samples) != 10 || res.LastWindow != 100 {
		t.Fatalf("got %d samples, last window %d; want 10, 100", len(res.Samples), res.LastWindow)
	}
	// Paginate: since = last seen window, limit 3.
	var got []uint64
	since := uint64(0)
	for {
		res, err := h.Query("job1", since, 3)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if len(res.Samples) == 0 {
			break
		}
		for _, s := range res.Samples {
			got = append(got, s.Window)
		}
		since = res.Samples[len(res.Samples)-1].Window
	}
	if len(got) != 10 {
		t.Fatalf("pagination walked %d samples, want 10: %v", len(got), got)
	}
	for i, w := range got {
		if w != uint64(i+1)*10 {
			t.Fatalf("pagination out of order at %d: %v", i, got)
		}
	}
	if _, err := h.Query("nope", 0, 0); err != ErrNoSeries {
		t.Fatalf("unknown job: got %v, want ErrNoSeries", err)
	}
}

func TestIngestRejectsStaleWindows(t *testing.T) {
	reg := metrics.NewRegistry()
	h := newTestHub(t, Options{Metrics: reg})
	push(t, h, "j", 5)
	push(t, h, "j", 5)  // duplicate
	push(t, h, "j", 3)  // regression
	push(t, h, "j", 10) // advance
	res, _ := h.Query("j", 0, 0)
	if len(res.Samples) != 2 {
		t.Fatalf("retained %d samples, want 2 (stale dropped)", len(res.Samples))
	}
	if v := reg.Counter("telemetry_stale_samples_total", "").Value(); v != 2 {
		t.Fatalf("stale counter = %d, want 2", v)
	}
}

func TestIngestRejectsEmptyJob(t *testing.T) {
	h := newTestHub(t, Options{})
	if err := h.Ingest(Sample{Window: 1}); err == nil {
		t.Fatal("Ingest without job id should error")
	}
}

func TestRingBudgets(t *testing.T) {
	h := newTestHub(t, Options{MaxSamplesPerJob: 4})
	for w := uint64(1); w <= 10; w++ {
		push(t, h, "j", w)
	}
	res, _ := h.Query("j", 0, 0)
	if len(res.Samples) != 4 || res.Samples[0].Window != 7 {
		t.Fatalf("ring kept %d samples starting at %d; want 4 starting at 7",
			len(res.Samples), res.Samples[0].Window)
	}
	if res.Evicted != 6 {
		t.Fatalf("evicted = %d, want 6", res.Evicted)
	}

	// Byte budget: each sample costs ~100 bytes, so a 300-byte budget
	// retains only the newest few.
	hb := newTestHub(t, Options{MaxBytesPerJob: 300})
	for w := uint64(1); w <= 50; w++ {
		push(t, hb, "j", w)
	}
	res, _ = hb.Query("j", 0, 0)
	if len(res.Samples) >= 50 || len(res.Samples) == 0 {
		t.Fatalf("byte budget retained %d samples, want a small non-zero tail", len(res.Samples))
	}
	if res.Samples[len(res.Samples)-1].Window != 50 {
		t.Fatal("byte budget must evict oldest first")
	}
}

func TestPersistenceRoundTripAndResumeDedup(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	h := newTestHub(t, Options{Store: st})
	for w := uint64(10); w <= 50; w += 10 {
		push(t, h, "j", w, func(s *Sample) { s.Estimate = float64(w) / 1000 })
	}
	if err := h.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// A fresh hub on a re-opened store sees the series.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	h2 := newTestHub(t, Options{Store: st2})
	res, err := h2.Query("j", 0, 0)
	if err != nil {
		t.Fatalf("Query after restart: %v", err)
	}
	if len(res.Samples) != 5 || res.LastWindow != 50 || res.Kind != "observatory" {
		t.Fatalf("restart lost state: %d samples, last %d, kind %q", len(res.Samples), res.LastWindow, res.Kind)
	}
	if res.Samples[2].Estimate != 0.03 {
		t.Fatalf("sample payload mangled: %+v", res.Samples[2])
	}

	// Resume dedup: re-pushing already-persisted windows is stale; the
	// next new window extends the series without a duplicate.
	push(t, h2, "j", 40)
	push(t, h2, "j", 50)
	push(t, h2, "j", 60)
	res, _ = h2.Query("j", 0, 0)
	if len(res.Samples) != 6 || res.Samples[5].Window != 60 {
		t.Fatalf("resume merge wrong: %d samples, last %d; want 6 ending at 60", len(res.Samples), res.LastWindow)
	}
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].Window <= res.Samples[i-1].Window {
			t.Fatalf("windows not strictly increasing: %+v", res.Samples)
		}
	}
}

func TestFlushEveryPersistsAutomatically(t *testing.T) {
	dir := t.TempDir()
	st, _ := store.Open(dir, store.Options{})
	h := newTestHub(t, Options{Store: st, FlushEvery: 2})
	push(t, h, "j", 1)
	push(t, h, "j", 2) // second ingest crosses the cadence → flush
	st2, _ := store.Open(dir, store.Options{})
	h2 := newTestHub(t, Options{Store: st2})
	res, err := h2.Query("j", 0, 0)
	if err != nil || len(res.Samples) != 2 {
		t.Fatalf("auto-flush missing: err=%v samples=%d", err, len(res.Samples))
	}
}

func TestSubscribeFanoutAndOverflow(t *testing.T) {
	h := newTestHub(t, Options{})
	sub := h.Subscribe(2)
	defer sub.Close()
	for w := uint64(1); w <= 5; w++ {
		push(t, h, "j", w)
	}
	// Buffer of 2: first two delivered, three dropped.
	if s := <-sub.C; s.Window != 1 {
		t.Fatalf("first delivered window %d, want 1", s.Window)
	}
	if s := <-sub.C; s.Window != 2 {
		t.Fatalf("second delivered window %d, want 2", s.Window)
	}
	if d := sub.Dropped(); d != 3 {
		t.Fatalf("Dropped = %d, want 3", d)
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("Dropped must reset, got %d", d)
	}
	// After Close, ingest no longer reaches the channel.
	sub.Close()
	push(t, h, "j", 6)
	select {
	case s, ok := <-sub.C:
		if ok {
			t.Fatalf("closed subscription received window %d", s.Window)
		}
	default:
	}
}

func TestFleetAggregates(t *testing.T) {
	h := newTestHub(t, Options{})
	push(t, h, "a", 100, func(s *Sample) {
		s.Availability = 0.999
		s.Trials = 100
		s.ViolationsTotal = 1
		s.UnixMs = 1000
	})
	push(t, h, "a", 200, func(s *Sample) {
		s.Availability = 0.999
		s.Trials = 200
		s.ViolationsTotal = 2
		s.UnixMs = 2000
	})
	push(t, h, "b", 10, func(s *Sample) {
		s.Availability = 0.997
		s.Trials = 50
		s.UnixMs = 1500
	})
	f := h.Fleet()
	if len(f.Jobs) != 2 || f.Ingested != 3 {
		t.Fatalf("fleet sees %d jobs / %d ingested, want 2 / 3", len(f.Jobs), f.Ingested)
	}
	if want := (0.999 + 0.997) / 2; f.FleetAvailability != want {
		t.Fatalf("fleet availability %g, want %g", f.FleetAvailability, want)
	}
	if f.Trials != 250 || f.Violations != 2 {
		t.Fatalf("trials/violations = %d/%d, want 250/2", f.Trials, f.Violations)
	}
	if want := 2.0 / 250; f.ViolationRate != want {
		t.Fatalf("violation rate %g, want %g", f.ViolationRate, want)
	}
	// Job a folded 100 trials over 1s between its two samples.
	if f.TrialsPerSec != 100 {
		t.Fatalf("trials/sec %g, want 100", f.TrialsPerSec)
	}
	if f.SamplesPerSec <= 0 {
		t.Fatalf("samples/sec %g, want > 0", f.SamplesPerSec)
	}
}

func TestNilHubIsSafe(t *testing.T) {
	var h *Hub
	if err := h.Ingest(Sample{Job: "j", Window: 1}); err != nil {
		t.Fatalf("nil Ingest: %v", err)
	}
	if err := h.Flush(); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
	if _, err := h.Query("j", 0, 0); err != ErrNoSeries {
		t.Fatalf("nil Query: %v", err)
	}
	if f := h.Fleet(); len(f.Jobs) != 0 {
		t.Fatal("nil Fleet must be empty")
	}
	if jobs := h.Jobs(); jobs != nil {
		t.Fatal("nil Jobs must be nil")
	}
	sub := h.Subscribe(1)
	if _, ok := <-sub.C; ok {
		t.Fatal("nil hub subscription channel must be closed")
	}
	sub.Dropped()
	sub.Close()
}

func TestEvictedSeriesDocLoadsEmpty(t *testing.T) {
	// A store that evicted the series document under its LRU budget must
	// not wedge the hub: the series comes back empty and ingest resumes.
	dir := t.TempDir()
	st, _ := store.Open(dir, store.Options{})
	h := newTestHub(t, Options{Store: st})
	push(t, h, "j", 1)
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	key := seriesKey("j")
	if err := os.Remove(filepath.Join(dir, "objects", key[:2], key)); err != nil {
		t.Fatal(err)
	}

	st2, _ := store.Open(dir, store.Options{})
	h2 := newTestHub(t, Options{Store: st2})
	res, err := h2.Query("j", 0, 0)
	if err != nil || len(res.Samples) != 0 {
		t.Fatalf("evicted series: err=%v samples=%d, want empty ok", err, len(res.Samples))
	}
	push(t, h2, "j", 2)
	res, _ = h2.Query("j", 0, 0)
	if len(res.Samples) != 1 {
		t.Fatalf("ingest after eviction retained %d, want 1", len(res.Samples))
	}
}
