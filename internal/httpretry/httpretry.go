// Package httpretry wraps an http.Client with capped exponential
// backoff and jitter for the failure modes a coordinator restart
// produces: connection errors (refused/reset while the process is down)
// and 429/503 responses (admission pushback, drain). 429/503 honor the
// Retry-After header when the server sends one.
//
// It exists so dractl and the fleet worker share one retry policy: a
// worker that gives up on the first refused connection would turn every
// coordinator restart into an outage, which is exactly the coupling the
// fleet split is meant to remove.
package httpretry

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Options tunes the retry policy. The zero value selects the defaults.
type Options struct {
	// MaxAttempts bounds the total tries (first attempt included);
	// 0 selects 6.
	MaxAttempts int
	// BaseDelay is the first backoff; doubles per attempt up to
	// MaxDelay. 0 selects 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the computed backoff (a server Retry-After may
	// exceed it, capped at RetryAfterCap). 0 selects 5s.
	MaxDelay time.Duration
	// RetryAfterCap bounds how long a Retry-After header is honored;
	// 0 selects 30s.
	RetryAfterCap time.Duration
	// Jitter is the relative ± randomisation of each delay; 0 selects
	// 0.2. Negative disables (deterministic delays, for tests).
	Jitter float64
	// Rand supplies the jitter draw in [0, 1); nil uses math/rand.
	Rand func() float64
	// Sleep waits between attempts; nil sleeps on a timer honoring ctx.
	// Injectable for tests.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (o Options) maxAttempts() int { return defInt(o.MaxAttempts, 6) }

func defInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

func defDur(v, d time.Duration) time.Duration {
	if v == 0 {
		return d
	}
	return v
}

// Client retries requests through HC (http.DefaultClient when nil).
type Client struct {
	HC  *http.Client
	Opt Options
}

// retryable reports whether a status is admission pushback or drain,
// the two a restarting coordinator answers with.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// delay computes the backoff before attempt (0-based counting retries),
// preferring the server's Retry-After when present.
func (c *Client) delay(attempt int, resp *http.Response) time.Duration {
	base := defDur(c.Opt.BaseDelay, 100*time.Millisecond)
	max := defDur(c.Opt.MaxDelay, 5*time.Second)
	if resp != nil {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				d := time.Duration(secs) * time.Second
				if cap := defDur(c.Opt.RetryAfterCap, 30*time.Second); d > cap {
					d = cap
				}
				return d
			}
		}
	}
	d := time.Duration(float64(base) * math.Pow(2, float64(attempt)))
	if d > max || d <= 0 {
		d = max
	}
	j := c.Opt.Jitter
	if j == 0 {
		j = 0.2
	}
	if j > 0 {
		draw := rand.Float64
		if c.Opt.Rand != nil {
			draw = c.Opt.Rand
		}
		d = time.Duration(float64(d) * (1 - j + 2*j*draw()))
	}
	return d
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Opt.Sleep != nil {
		return c.Opt.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do issues req, retrying connection errors and retryable statuses with
// exponential backoff. The request body, when non-nil, must be fully
// buffered via req.GetBody (http.NewRequest with a *bytes.Reader/
// *bytes.Buffer/*strings.Reader sets it) so it can be replayed. On
// success the caller owns the response body. On a non-retryable status
// the response is returned as-is (not an error). After the attempts
// budget the last error or retryable response is returned.
func (c *Client) Do(req *http.Request) (*http.Response, error) {
	hc := c.HC
	if hc == nil {
		hc = http.DefaultClient
	}
	ctx := req.Context()
	attempts := c.Opt.maxAttempts()
	var lastErr error
	for attempt := 0; ; attempt++ {
		r := req
		if attempt > 0 && req.GetBody != nil {
			body, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			r = req.Clone(ctx)
			r.Body = body
		}
		resp, err := hc.Do(r)
		if err == nil && !retryable(resp.StatusCode) {
			return resp, nil
		}
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, err
			}
			if attempt+1 >= attempts {
				return nil, lastErr
			}
			if serr := c.sleep(ctx, c.delay(attempt, nil)); serr != nil {
				return nil, lastErr
			}
			continue
		}
		// Retryable status: drain so the connection is reusable, keep
		// the last response to hand back if the budget runs out.
		if attempt+1 >= attempts {
			return resp, nil
		}
		d := c.delay(attempt, resp)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
		if serr := c.sleep(ctx, d); serr != nil {
			return nil, serr
		}
	}
}

// Post is a convenience for the JSON POSTs the fleet protocol uses: the
// body is buffered so every retry replays it.
func (c *Client) Post(ctx context.Context, url, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return c.Do(req)
}
