package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// testServer boots a manager + server over an httptest listener.
func testServer(t *testing.T, mopt jobs.Options) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	if mopt.Store == nil {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mopt.Store = st
	}
	if mopt.Telemetry == nil {
		hub, err := telemetry.New(telemetry.Options{Store: mopt.Store})
		if err != nil {
			t.Fatal(err)
		}
		mopt.Telemetry = hub
	}
	mgr, err := jobs.NewManager(mopt)
	if err != nil {
		t.Fatal(err)
	}
	// Registered after the TempDirs, so it runs before they are removed:
	// no runner can still be writing into them.
	t.Cleanup(func() { mgr.Drain(context.Background()) })
	srv, err := New(Options{
		Manager: mgr, Metrics: metrics.NewRegistry(),
		SampleInterval: 20 * time.Millisecond, Telemetry: mopt.Telemetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, mgr
}

func specBody(seed uint64) string {
	return fmt.Sprintf(`{"kind": "reliability", "router": {"n": 4, "m": 2}, "mc": {"seed": %d, "reps": 10}}`, seed)
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func instantRunner(calls *atomic.Int64) jobs.Runner {
	return func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
		if calls != nil {
			calls.Add(1)
		}
		return json.RawMessage(`{"answer": 42}`), nil
	}
}

func TestSubmitStatusResult(t *testing.T) {
	var calls atomic.Int64
	ts, mgr := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: instantRunner(&calls)}})

	resp, body := post(t, ts.URL+"/v1/jobs", specBody(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.Kind != config.KindReliability {
		t.Fatalf("bad snapshot %+v", snap)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := mgr.Wait(ctx, snap.ID); err != nil {
		t.Fatal(err)
	}

	resp, body = get(t, ts.URL+"/v1/jobs/"+snap.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &snap)
	if snap.State != jobs.StateDone {
		t.Fatalf("state %s", snap.State)
	}

	resp, body = get(t, ts.URL+"/v1/jobs/"+snap.ID+"/result")
	if resp.StatusCode != http.StatusOK || string(body) != `{"answer": 42}` {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}

	resp, body = get(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(snap.ID)) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
}

// TestCacheHitReturns200: the second identical submit is served from the
// store — HTTP 200 with cached set, versus 202 for fresh work.
func TestCacheHitReturns200(t *testing.T) {
	var calls atomic.Int64
	ts, mgr := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: instantRunner(&calls)}})
	_, body := post(t, ts.URL+"/v1/jobs", specBody(2))
	var first jobs.Snapshot
	json.Unmarshal(body, &first)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mgr.Wait(ctx, first.ID)

	resp, body := post(t, ts.URL+"/v1/jobs", specBody(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit: %d %s", resp.StatusCode, body)
	}
	var second jobs.Snapshot
	json.Unmarshal(body, &second)
	if !second.Cached || second.ID != first.ID {
		t.Fatalf("cache hit snapshot %+v", second)
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times", calls.Load())
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	ts, _ := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: instantRunner(nil)}})
	for _, body := range []string{
		`not json`,
		`{"kind": "nonsense"}`,
		`{"kind": "reliability"}`, // missing router/mc
		`{"kind": "reliability", "router": {"n": 4, "m": 2}, "mc": {"reps": 10}, "bogus": 1}`,
	} {
		resp, b := post(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d %s", body, resp.StatusCode, b)
		}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) != nil || e.Error == "" {
			t.Errorf("spec %q: no error body: %s", body, b)
		}
	}
}

// TestQueueFullReturns429 is the admission-control contract: a full
// queue answers 429 with Retry-After instead of growing without bound.
func TestQueueFullReturns429(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	}
	defer close(release)
	ts, _ := testServer(t, jobs.Options{
		Workers: 1, MaxQueued: 2,
		Runners: map[string]jobs.Runner{config.KindReliability: blocking},
	})
	for seed := uint64(1); seed <= 2; seed++ {
		resp, b := post(t, ts.URL+"/v1/jobs", specBody(seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", seed, resp.StatusCode, b)
		}
	}
	resp, b := post(t, ts.URL+"/v1/jobs", specBody(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestCancelEndpoint(t *testing.T) {
	started := make(chan struct{})
	blocking := func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts, mgr := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: blocking}})
	_, body := post(t, ts.URL+"/v1/jobs", specBody(4))
	var snap jobs.Snapshot
	json.Unmarshal(body, &snap)
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := mgr.Wait(ctx, snap.ID)
	if err != nil || final.State != jobs.StateCanceled {
		t.Fatalf("after cancel: %+v, %v", final, err)
	}
}

func TestUnknownJob404s(t *testing.T) {
	ts, _ := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: instantRunner(nil)}})
	id := strings.Repeat("ab", 32)
	for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/result", "/v1/jobs/" + id + "/events"} {
		resp, _ := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestResultOfRunningJobConflicts: polling a result before the job is
// done reports 409, not 404.
func TestResultOfRunningJobConflicts(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocking := func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	}
	ts, _ := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: blocking}})
	_, body := post(t, ts.URL+"/v1/jobs", specBody(5))
	var snap jobs.Snapshot
	json.Unmarshal(body, &snap)
	resp, _ := get(t, ts.URL+"/v1/jobs/"+snap.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: %d, want 409", resp.StatusCode)
	}
}

// TestEventStream: the NDJSON stream carries lifecycle events, runner
// progress notes, and metric samples, and closes when the job rests.
func TestEventStream(t *testing.T) {
	attached := make(chan struct{}) // closed once the stream is connected
	runner := func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
		rc.Metrics.Counter("test_progress_total", "test").Add(7)
		<-attached
		rc.Progress("halfway there")
		time.Sleep(60 * time.Millisecond) // let a sample tick fire
		return json.RawMessage(`{}`), nil
	}
	ts, _ := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: runner}})
	_, body := post(t, ts.URL+"/v1/jobs", specBody(6))
	var snap jobs.Snapshot
	json.Unmarshal(body, &snap)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var sawDone, sawSample, sawNote bool
	sc := bufio.NewScanner(resp.Body)
	// The first line (the primed current state) proves the subscription
	// is live; only then may the runner publish its note.
	if !sc.Scan() {
		t.Fatalf("stream ended before first line: %v", sc.Err())
	}
	close(attached)
	for sc.Scan() {
		var line struct {
			Type  string      `json:"type"`
			Event *jobs.Event `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "event":
			if line.Event.State == jobs.StateDone {
				sawDone = true
			}
			if line.Event.Note == "halfway there" {
				sawNote = true
			}
		case "sample":
			sawSample = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone || !sawSample || !sawNote {
		t.Fatalf("stream missing content: done=%v sample=%v note=%v", sawDone, sawSample, sawNote)
	}
}

// TestEventStreamCarriesNonFiniteSample: a job whose registry holds a
// +Inf gauge (a reliability job with no failed replication has an
// infinite relative error) still streams its samples, and the stream
// ends with the final one.
func TestEventStreamCarriesNonFiniteSample(t *testing.T) {
	attached := make(chan struct{}) // closed once the stream is connected
	runner := func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
		<-attached
		rc.Metrics.Gauge("montecarlo_relative_error", "test").Set(math.Inf(1))
		return json.RawMessage(`{}`), nil
	}
	ts, _ := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: runner}})
	_, body := post(t, ts.URL+"/v1/jobs", specBody(8))
	var snap jobs.Snapshot
	json.Unmarshal(body, &snap)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("stream ended before first line: %v", sc.Err())
	}
	close(attached)
	var last streamLine
	for sc.Scan() {
		last = streamLine{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.Type != "sample" || !bytes.Contains(last.Metrics, []byte(`"+Inf"`)) {
		t.Fatalf("stream did not end with a sample carrying +Inf; last line: type %q metrics %s", last.Type, last.Metrics)
	}
}

// TestEventStreamEndsAfterDroppedTerminalEvent: event delivery is
// best-effort — a flood past the subscriber buffer drops events, the
// terminal transition included. The stream must still end once the job
// is done (the handler falls back to the job snapshot on sample ticks)
// rather than emitting samples forever.
func TestEventStreamEndsAfterDroppedTerminalEvent(t *testing.T) {
	flood := make(chan struct{}) // closed once the stream is connected
	runner := func(ctx context.Context, rc jobs.RunContext, spec config.Spec) (json.RawMessage, error) {
		<-flood
		// Far more notes than the subscriber buffer holds, published
		// faster than the handler can drain them: the done transition
		// behind them is dropped.
		note := strings.Repeat("x", 1024)
		for i := 0; i < 256; i++ {
			rc.Progress(note)
		}
		return json.RawMessage(`{"ok": true}`), nil
	}
	ts, mgr := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: runner}})
	_, body := post(t, ts.URL+"/v1/jobs", specBody(77))
	var snap jobs.Snapshot
	json.Unmarshal(body, &snap)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+snap.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("stream ended before first line: %v", sc.Err())
	}
	close(flood)

	sawTerminal := false
	for sc.Scan() {
		var line struct {
			Type  string      `json:"type"`
			Event *jobs.Event `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Type == "event" && line.Event != nil && line.Event.State.Terminal() {
			sawTerminal = true
		}
	}
	// A hung stream surfaces here as the context deadline killing the
	// read mid-scan.
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}
	if !sawTerminal {
		t.Fatal("stream ended without a terminal event")
	}
	if s, _ := mgr.Get(snap.ID); s.State != jobs.StateDone {
		t.Fatalf("job state %s, want done", s.State)
	}
}

func TestHealthzAndMetricsMounted(t *testing.T) {
	ts, mgr := testServer(t, jobs.Options{Runners: map[string]jobs.Runner{config.KindReliability: instantRunner(nil)}})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
		Queued   int  `json:"queued"`
		Running  int  `json:"running"`
	}
	if err := json.Unmarshal(body, &h); err != nil || !h.OK || h.Draining {
		t.Fatalf("healthz body %s (%v)", body, err)
	}
	resp, _ = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/metrics.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.json: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	json.Unmarshal(body, &h)
	if h.OK || !h.Draining {
		t.Fatalf("draining healthz body %s", body)
	}
	resp, _ = post(t, ts.URL+"/v1/jobs", specBody(9))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}
