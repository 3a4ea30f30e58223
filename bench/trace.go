package main

// Spans of a traced pass, built from the timestamps the harness keeps in
// memory for every request and job: the harness's own spans around each
// HTTP call, and drad's lifecycle stamps (submitted_at, started_at,
// finished_at) from the job snapshot. Written out as a Chrome trace,
// which Perfetto opens, and summarized as per-name self times.

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"time"
)

type span struct {
	Name       string
	Start, End time.Time
	Parent     int    // index of the parent span, -1 for a root
	ID         string // request's staged job ID, or the job's ID
	Lane       int    // track: client lanes first, drad's lifecycle lanes after
}

// lifecycleLane offsets the tracks of drad's own lifecycle stamps from
// the client's, since they overlap the client's HTTP spans.
const lifecycleLane = 1000

// lanes assigns each interval the first track free at its start.
type lanes []time.Time

func (l *lanes) take(start, end time.Time) int {
	for i, free := range *l {
		if !start.Before(free) {
			(*l)[i] = end
			return i
		}
	}
	*l = append(*l, end)
	return len(*l) - 1
}

// spans builds the pass's span list.
func (p *pass) spans() []span {
	var out []span
	add := func(s span) int {
		out = append(out, s)
		return len(out) - 1
	}
	var ls lanes
	for _, q := range p.Hits {
		id := p.tmpl.Specs[q.Idx].ID
		lane := ls.take(q.Due, q.Done)
		root := add(span{Name: "request", Start: q.Due, End: q.Done, Parent: -1, ID: id, Lane: lane})
		add(span{Name: "http." + opNames[q.Op], Start: q.Sent, End: q.Done, Parent: root, ID: id, Lane: lane})
	}
	recs := append([]jobRecord(nil), p.Records...)
	sort.Slice(recs, func(a, b int) bool { return recs[a].Send.Before(recs[b].Send) })
	for _, r := range recs {
		lane := ls.take(r.Send, r.Result[1])
		root := add(span{Name: "job", Start: r.Send, End: r.Terminal, Parent: -1, ID: r.ID, Lane: lane})
		add(span{Name: "http.submit", Start: r.Send, End: r.Submitted, Parent: root, ID: r.ID, Lane: lane})
		add(span{Name: "http.events", Start: r.Submitted, End: r.Terminal, Parent: root, ID: r.ID, Lane: lane})
		if s := r.Snap; s.StartedAt != nil && s.FinishedAt != nil {
			sl := lifecycleLane + lane
			add(span{Name: "jobs.admit", Start: r.Send, End: s.SubmittedAt, Parent: root, ID: r.ID, Lane: sl})
			add(span{Name: "jobs.queue_wait", Start: s.SubmittedAt, End: *s.StartedAt, Parent: root, ID: r.ID, Lane: sl})
			add(span{Name: "jobs.exec", Start: *s.StartedAt, End: *s.FinishedAt, Parent: root, ID: r.ID, Lane: sl})
			add(span{Name: "jobs.notify", Start: *s.FinishedAt, End: r.Terminal, Parent: root, ID: r.ID, Lane: sl})
		}
		if !r.Status[0].IsZero() {
			add(span{Name: "http.status", Start: r.Status[0], End: r.Status[1], Parent: -1, ID: r.ID, Lane: lane})
		}
		add(span{Name: "http.result", Start: r.Result[0], End: r.Result[1], Parent: -1, ID: r.ID, Lane: lane})
	}
	return out
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	SelfMs float64 `json:"self_p50_ms"`
}

// selfTimes reports, per span name, the median duration and the median
// self time: the span's duration minus the part its children cover.
func selfTimes(spans []span) map[string]spanStats {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	dur := map[string][]float64{}
	self := map[string][]float64{}
	for i, s := range spans {
		var iv [][2]time.Time
		for _, k := range kids[i] {
			iv = append(iv, [2]time.Time{spans[k].Start, spans[k].End})
		}
		d := s.End.Sub(s.Start)
		dur[s.Name] = append(dur[s.Name], ms(d))
		self[s.Name] = append(self[s.Name], ms(d-covered(s.Start, s.End, iv)))
	}
	out := make(map[string]spanStats, len(dur))
	for name, ds := range dur {
		out[name] = spanStats{Count: len(ds), P50Ms: quantile(ds, 0.5), SelfMs: quantile(self[name], 0.5)}
	}
	return out
}

// covered returns how much of [lo, hi] the union of the intervals covers.
func covered(lo, hi time.Time, iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var total time.Duration
	cur := lo
	for _, in := range iv {
		s, e := in[0], in[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeChromeTrace writes the spans in the Chrome trace event format.
func writeChromeTrace(path, workload string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "drabench " + workload}}}
	named := map[int]bool{}
	for _, s := range spans {
		if !named[s.Lane] {
			named[s.Lane] = true
			name := "client " + strconv.Itoa(s.Lane)
			if s.Lane >= lifecycleLane {
				name = "drad lifecycle " + strconv.Itoa(s.Lane-lifecycleLane)
			}
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.Lane, Args: map[string]any{"name": name}})
		}
		args := map[string]any{"id": s.ID}
		if s.Parent >= 0 {
			args["parent"] = spans[s.Parent].Name
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: us(s.Start.Sub(origin)), Dur: us(s.End.Sub(s.Start)), Pid: 1, Tid: s.Lane, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
