package main

// The load generator's HTTP side: one client per drad, at most two
// connections, and the job round trip (submit → events until the
// terminal event → status → result) that staging, cold-small and
// rare-e5b share.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
)

// maxConns bounds the generator's connections to drad: the host has
// two CPUs, and drad shares them with the generator.
const maxConns = 2

type client struct {
	base string
	hc   *http.Client
	sent atomic.Int64 // requests sent
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 5 * time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	c.sent.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submit posts a spec and decodes the snapshot.
func (c *client) submit(spec []byte) (int, jobs.Snapshot, error) {
	code, body, err := c.do("POST", "/v1/jobs", spec)
	if err != nil {
		return 0, jobs.Snapshot{}, err
	}
	var snap jobs.Snapshot
	if code == http.StatusOK || code == http.StatusAccepted {
		if err := json.Unmarshal(body, &snap); err != nil {
			return code, snap, fmt.Errorf("submit response: %w", err)
		}
	}
	return code, snap, nil
}

// status fetches a job snapshot.
func (c *client) status(id string) (int, jobs.Snapshot, error) {
	code, body, err := c.do("GET", "/v1/jobs/"+id, nil)
	if err != nil {
		return 0, jobs.Snapshot{}, err
	}
	var snap jobs.Snapshot
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &snap); err != nil {
			return code, snap, fmt.Errorf("status response: %w", err)
		}
	}
	return code, snap, nil
}

// awaitTerminal reads the job's NDJSON event stream until a resting
// state arrives and returns that state and the time its line was read.
func (c *client) awaitTerminal(id string) (jobs.State, time.Time, error) {
	c.sent.Add(1)
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		var line struct {
			Type  string      `json:"type"`
			Event *jobs.Event `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return "", time.Time{}, fmt.Errorf("events line: %w", err)
		}
		if line.Event != nil && (line.Event.State.Terminal() || line.Event.State == jobs.StateInterrupted) {
			at := time.Now()
			// Drain the rest so the connection goes back to the pool.
			io.Copy(io.Discard, resp.Body)
			return line.Event.State, at, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", time.Time{}, err
	}
	return "", time.Time{}, fmt.Errorf("events stream for %s ended without a terminal event", id)
}

// jobRecord is one computed job as the client saw it, plus drad's own
// lifecycle stamps when the status was fetched.
type jobRecord struct {
	ID        string
	Spec      []byte
	Send      time.Time // submit sent
	Submitted time.Time // submit response read
	Terminal  time.Time // terminal event read
	Snap      jobs.Snapshot
	Status    [2]time.Time // status request sent / read; zero when not fetched
	Result    [2]time.Time // result request sent / read
	Body      []byte       // result document
}

// latency is the job's end-to-end time: submit sent to terminal event.
func (r jobRecord) latency() time.Duration { return r.Terminal.Sub(r.Send) }

// runJob submits a spec that must compute (202), waits for the terminal
// event, optionally fetches the snapshot, and fetches the result. Every
// departure from that script is an error.
func (c *client) runJob(spec []byte, wantID string, withStatus bool) (jobRecord, error) {
	rec := jobRecord{Spec: spec, Send: time.Now()}
	code, snap, err := c.submit(spec)
	rec.Submitted = time.Now()
	if err != nil {
		return rec, err
	}
	if code != http.StatusAccepted {
		return rec, fmt.Errorf("submit: status %d, want 202", code)
	}
	if snap.ID != wantID {
		return rec, fmt.Errorf("submit: job id %s, want %s", snap.ID, wantID)
	}
	rec.ID = snap.ID
	state, at, err := c.awaitTerminal(rec.ID)
	rec.Terminal = at
	if err != nil {
		return rec, err
	}
	if state != jobs.StateDone {
		return rec, fmt.Errorf("job %s ended %s", rec.ID, state)
	}
	if withStatus {
		rec.Status[0] = time.Now()
		code, snap, err := c.status(rec.ID)
		rec.Status[1] = time.Now()
		if err != nil {
			return rec, err
		}
		if code != http.StatusOK || snap.State != jobs.StateDone || snap.StartedAt == nil || snap.FinishedAt == nil {
			return rec, fmt.Errorf("status of %s: code %d state %s", rec.ID, code, snap.State)
		}
		rec.Snap = snap
	}
	rec.Result[0] = time.Now()
	code, body, err := c.do("GET", "/v1/jobs/"+rec.ID+"/result", nil)
	rec.Result[1] = time.Now()
	if err != nil {
		return rec, err
	}
	if code != http.StatusOK {
		return rec, fmt.Errorf("result of %s: status %d", rec.ID, code)
	}
	rec.Body = body
	return rec, nil
}
