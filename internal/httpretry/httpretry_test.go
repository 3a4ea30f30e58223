package httpretry

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// instant makes delays observable without wall-clock waits.
func instant(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

func TestRetriesConnectionErrorThenSucceeds(t *testing.T) {
	// A server that exists only from the third attempt: simulate with a
	// handler counting calls behind a flaky transport is awkward, so
	// instead point the first attempts at a closed port via a transport
	// swap — simpler: use a handler that force-closes the first two
	// connections.
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= 2 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close() // mid-request close → client sees a transport error
			return
		}
		body, _ := io.ReadAll(r.Body)
		if string(body) != `{"worker":"w1"}` {
			t.Errorf("retried body corrupted: %q", body)
		}
		w.WriteHeader(200)
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	var delays []time.Duration
	c := &Client{Opt: Options{Sleep: instant(&delays), Jitter: -1}}
	resp, err := c.Post(context.Background(), srv.URL, "application/json", []byte(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(delays) != 2 {
		t.Fatalf("expected 2 backoffs, got %v", delays)
	}
	if delays[1] != 2*delays[0] {
		t.Fatalf("backoff not exponential: %v", delays)
	}
}

func TestRetries503HonoringRetryAfter(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(200)
	}))
	defer srv.Close()

	var delays []time.Duration
	c := &Client{Opt: Options{Sleep: instant(&delays), Jitter: -1}}
	resp, err := c.Get(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(delays) != 1 || delays[0] != 7*time.Second {
		t.Fatalf("Retry-After not honored: %v", delays)
	}
}

func TestGivesUpAfterMaxAttemptsWithLastResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	var delays []time.Duration
	c := &Client{Opt: Options{MaxAttempts: 3, Sleep: instant(&delays), Jitter: -1}}
	resp, err := c.Get(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected the final 429 handed back, got %d", resp.StatusCode)
	}
	if len(delays) != 2 {
		t.Fatalf("expected 2 backoffs before giving up, got %v", delays)
	}
}

func TestNonRetryableStatusReturnsImmediately(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "bad spec", http.StatusBadRequest)
	}))
	defer srv.Close()

	c := &Client{Opt: Options{Jitter: -1}}
	resp, err := c.Get(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("400 should not retry: status %d calls %d", resp.StatusCode, calls)
	}
}

func TestContextCancelStopsRetrying(t *testing.T) {
	c := &Client{Opt: Options{MaxAttempts: 100, BaseDelay: time.Millisecond, Jitter: -1}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Nothing listens on this port (reserved then closed).
	srv := httptest.NewServer(http.HandlerFunc(nil))
	url := srv.URL
	srv.Close()
	start := time.Now()
	_, err := c.Get(ctx, url)
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry loop ignored context cancellation")
	}
}

func TestDelayCapsAndJitterBounds(t *testing.T) {
	c := &Client{Opt: Options{BaseDelay: time.Second, MaxDelay: 3 * time.Second, Jitter: -1}}
	if d := c.delay(10, nil); d != 3*time.Second {
		t.Fatalf("cap not applied: %v", d)
	}
	// Jittered delays stay within ±20% of the base.
	j := &Client{Opt: Options{BaseDelay: time.Second, Rand: func() float64 { return 1 }}}
	if d := j.delay(0, nil); d != 1200*time.Millisecond {
		t.Fatalf("max jitter wrong: %v", d)
	}
	j.Opt.Rand = func() float64 { return 0 }
	if d := j.delay(0, nil); d != 800*time.Millisecond {
		t.Fatalf("min jitter wrong: %v", d)
	}
	// Retry-After beyond the cap is clamped.
	resp := &http.Response{Header: http.Header{"Retry-After": []string{"3600"}}}
	cl := &Client{Opt: Options{RetryAfterCap: 10 * time.Second, Jitter: -1}}
	if d := cl.delay(0, resp); d != 10*time.Second {
		t.Fatalf("Retry-After cap not applied: %v", d)
	}
}

func TestPostBodyReplayedViaGetBody(t *testing.T) {
	req, err := http.NewRequest(http.MethodPost, "http://x", strings.NewReader("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if req.GetBody == nil {
		t.Fatal("strings.Reader bodies must set GetBody for retry replay")
	}
}

// Get is the GET counterpart of Post, for the tests.
func (c *Client) Get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}
