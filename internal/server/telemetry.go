package server

// The /v1/telemetry endpoints: the HTTP face of the telemetry hub.
// Running jobs push windowed samples through their RunContext; remote
// producers can POST them; readers get per-job range queries with
// pagination, a fleet aggregate, and a fleet-wide NDJSON live tail that
// multiplexes every job's sample stream.

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// telemetryIngest accepts samples as NDJSON (one Sample per line) or a
// single JSON array, and pushes them onto the hub. Samples that fail
// hub admission (no job ID, stale window) are counted, not fatal: the
// response reports {ingested, rejected} and ingestion is best-effort
// by design — a producer must never stall on the observer.
func (s *Server) telemetryIngest(w http.ResponseWriter, r *http.Request) {
	body := io.LimitReader(r.Body, s.opt.MaxSpecBytes+1)
	var samples []telemetry.Sample

	br := bufio.NewReader(body)
	first, err := br.Peek(1)
	if err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(first) > 0 && first[0] == '[' {
		if err := json.NewDecoder(br).Decode(&samples); err != nil {
			writeError(w, http.StatusBadRequest, "parsing sample array: %v", err)
			return
		}
	} else {
		dec := json.NewDecoder(br)
		for {
			var smp telemetry.Sample
			if err := dec.Decode(&smp); err == io.EOF {
				break
			} else if err != nil {
				writeError(w, http.StatusBadRequest, "parsing sample stream: %v", err)
				return
			}
			samples = append(samples, smp)
		}
	}

	ingested, rejected := 0, 0
	for _, smp := range samples {
		if err := s.opt.Telemetry.Ingest(smp); err != nil {
			rejected++
		} else {
			ingested++
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"ingested": ingested, "rejected": rejected})
}

// telemetryFleet serves the cross-job aggregate: per-job latest
// samples plus fleet availability, violation rate, and throughput.
func (s *Server) telemetryFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.opt.Telemetry.Fleet())
}

// telemetryQuery serves one job's retained series. ?since=W returns
// only windows strictly after W (resume a tail without re-reading);
// ?limit=N caps the page size, with next_since pointing at the
// continuation.
func (s *Server) telemetryQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var since uint64
	var limit int
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since %q: %v", v, err)
			return
		}
		since = n
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	res, err := s.opt.Telemetry.Query(id, since, limit)
	if errors.Is(err, telemetry.ErrNoSeries) {
		writeError(w, http.StatusNotFound, "no telemetry series for job %s", id)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// tailLine is one NDJSON line of the fleet-wide telemetry tail.
type tailLine struct {
	Type string `json:"type"` // "sample" | "done" | "dropped"
	// sample lines carry the sample verbatim.
	Sample *telemetry.Sample `json:"sample,omitempty"`
	// done lines mark a tailed job coming to rest.
	Job    string     `json:"job,omitempty"`
	State  jobs.State `json:"state,omitempty"`
	UnixMs int64      `json:"unix_ms,omitempty"`
	// dropped lines report samples lost to subscriber-buffer overflow
	// since the previous line (the tail is lossy under pressure, never
	// blocking).
	Dropped uint64 `json:"dropped,omitempty"`
}

// telemetryTail streams every job's samples as one multiplexed NDJSON
// feed. Subscription delivery is best-effort (a slow client drops
// samples, reported via "dropped" lines, rather than stalling
// producers), so — like the per-job events stream — each tick also
// consults the manager's snapshots directly and synthesizes a "done"
// line for any tailed job that reached a terminal state, even if the
// samples that would have revealed it were dropped. The stream runs
// until the client disconnects.
func (s *Server) telemetryTail(w http.ResponseWriter, r *http.Request) {
	sub := s.opt.Telemetry.Subscribe(s.opt.TailBuffer)
	defer sub.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the response header out now: the first body line may be
		// arbitrarily far away on a quiet fleet, and tailing clients
		// block on the header.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	emit := func(line tailLine) bool {
		if err := enc.Encode(line); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	// Jobs seen on the feed that have not yet been reported done. Seeded
	// from the hub so a tail attached after a burst still closes out
	// jobs whose samples it never saw.
	open := make(map[string]bool)
	for _, job := range s.opt.Telemetry.Jobs() {
		open[job] = true
	}
	sample := func(smp telemetry.Sample) bool {
		open[smp.Job] = true
		return emit(tailLine{Type: "sample", Sample: &smp})
	}
	// reap closes out the jobs that have come to rest. A job's samples
	// are all ingested before it rests, so reading the states first and
	// then draining the samples already queued puts every sample of a
	// job ahead of its done line, and none can reopen it afterwards.
	reap := func() bool {
		var rest []tailLine
		for job := range open {
			snap, err := s.mgr.Get(job)
			if err != nil {
				// Unknown to the manager (e.g. an externally POSTed
				// series): nothing to report done.
				delete(open, job)
				continue
			}
			if snap.State.Terminal() || snap.State == jobs.StateInterrupted {
				rest = append(rest, tailLine{Type: "done", Job: job, State: snap.State})
			}
		}
		for n := len(sub.C); n > 0; n-- {
			if !sample(<-sub.C) {
				return false
			}
		}
		for _, line := range rest {
			delete(open, line.Job)
			line.UnixMs = time.Now().UnixMilli()
			if !emit(line) {
				return false
			}
		}
		return true
	}
	if !reap() {
		return
	}

	ticker := time.NewTicker(s.opt.SampleInterval)
	defer ticker.Stop()
	for {
		select {
		case smp, ok := <-sub.C:
			if !ok || !sample(smp) {
				return
			}
		case <-ticker.C:
			if n := sub.Dropped(); n > 0 {
				if !emit(tailLine{Type: "dropped", Dropped: n, UnixMs: time.Now().UnixMilli()}) {
					return
				}
			}
			if !reap() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
