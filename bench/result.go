package main

// The metric tables (BENCHMARK.json mirrors them; benchmark_test.go
// keeps the two in step) and the computation of every metric from a
// pass.

import (
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"time"

	dra "repro"
)

// metric is one declared metric.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share by which the median may worsen
}

// endToEnd are the user-visible metrics, measured with tracing off. The
// latency clocks: hit-read times each request from its scheduled send;
// the job workloads time each job from submit to its terminal event.
// Throughput is capacity-phase requests/s on hit-read, completed jobs/s
// on cold-small and regenerative cycles per second of job time on
// rare-e5b.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
}

// layerMetric is a per-layer metric and the end-to-end metrics it
// should move ("metric@workload").
type layerMetric struct {
	metric
	Moves []string
}

func lm(name, unit, better string, moves ...string) layerMetric {
	return layerMetric{metric{Name: name, Unit: unit, Better: better}, moves}
}

// perLayer are the traced pass's figures. Times are medians; counts are
// per job or per request.
var perLayer = []layerMetric{
	lm("server.submit_rtt_us", "us", "lower", "latency_p50_ms@hit-read"),
	lm("server.status_rtt_us", "us", "lower", "latency_p50_ms@hit-read"),
	lm("server.result_rtt_us", "us", "lower", "latency_p50_ms@hit-read"),
	lm("config.parse_us", "us", "lower", "latency_p50_ms@hit-read", "throughput_per_s@hit-read"),
	lm("config.jobid_us", "us", "lower", "latency_p50_ms@hit-read", "throughput_per_s@hit-read"),
	lm("mgmt.audit_append_us", "us", "lower", "latency_p50_ms@hit-read", "latency_p50_ms@cold-small"),
	lm("mgmt.audit_open_ms", "ms", "lower", "setup_s@hit-read"),
	lm("mgmt.audit_entries_per_req", "count", "lower", "throughput_per_s@hit-read"),
	lm("jobs.submit_hit_us", "us", "lower", "latency_p50_ms@hit-read"),
	lm("jobs.recover_ms", "ms", "lower", "setup_s@hit-read"),
	lm("jobs.admit_ms", "ms", "lower", "latency_p50_ms@cold-small"),
	lm("jobs.queue_wait_ms", "ms", "lower", "latency_p50_ms@cold-small"),
	lm("jobs.exec_ms", "ms", "lower", "latency_p50_ms@cold-small", "latency_p50_ms@rare-e5b"),
	lm("jobs.notify_ms", "ms", "lower", "latency_p50_ms@cold-small"),
	lm("store.open_ms", "ms", "lower", "setup_s@hit-read"),
	lm("store.has_ns", "ns", "lower", "latency_p50_ms@hit-read"),
	lm("store.get_hot_us", "us", "lower", "latency_p50_ms@hit-read"),
	lm("store.get_disk_us", "us", "lower", "latency_p50_ms@hit-read"),
	lm("store.put_us", "us", "lower", "latency_p50_ms@cold-small"),
	lm("store.objects_per_job", "count", "lower", "throughput_per_s@cold-small"),
	lm("telemetry.ingest_us", "us", "lower", "throughput_per_s@cold-small"),
	lm("telemetry.samples_per_job", "count", "lower", "throughput_per_s@cold-small", "latency_p50_ms@rare-e5b"),
	lm("montecarlo.reliability_ms", "ms", "lower", "latency_p50_ms@cold-small"),
	lm("montecarlo.checkpoint_write_us", "us", "lower", "latency_p50_ms@cold-small"),
	lm("montecarlo.cycles_per_s", "1/s", "higher", "throughput_per_s@rare-e5b"),
	lm("montecarlo.trials_per_job", "count", "lower", "latency_p50_ms@rare-e5b"),
	lm("sim.ns_per_event", "ns", "lower", "throughput_per_s@rare-e5b"),
	lm("sim.allocs_per_event", "count", "lower", "throughput_per_s@rare-e5b"),
	lm("sim.scheduler_ns", "ns", "lower", "throughput_per_s@rare-e5b"),
	lm("budget.unattributed_ms", "ms", "lower", "latency_p50_ms@hit-read", "latency_p50_ms@cold-small"),
	lm("budget.exec_overhead_ms", "ms", "lower", "latency_p50_ms@cold-small"),
	lm("budget.service_frac", "ratio", "lower", "throughput_per_s@rare-e5b"),
}

// maxLatenessMs is the generator lateness p99 past which a hit-read run
// is invalid: the generator, not drad, would be setting the latency.
const maxLatenessMs = 1.0

func toMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// endToEndValues computes the end-to-end metrics of a pass.
func endToEndValues(p *pass) map[string]float64 {
	lat := toMs(p.Latency)
	return map[string]float64{
		"setup_s":          quantile(p.Setup, 0.5),
		"peak_rss_mb":      p.PeakRSSMB,
		"latency_p50_ms":   quantile(lat, 0.5),
		"latency_p90_ms":   quantile(lat, 0.9),
		"throughput_per_s": p.Through,
	}
}

// latenessP99Ms is the open-loop generator's lateness p99 (0 elsewhere).
func latenessP99Ms(p *pass) float64 { return quantile(toMs(p.Lateness), 0.99) }

// jobPhases are drad's lifecycle phases of a set of computed jobs, in ms.
type jobPhases struct{ admit, queue, exec, notify []float64 }

func phasesOf(recs []jobRecord) jobPhases {
	var ph jobPhases
	for _, r := range recs {
		s := r.Snap
		if s.StartedAt == nil || s.FinishedAt == nil {
			continue
		}
		ph.admit = append(ph.admit, ms(s.SubmittedAt.Sub(r.Send)))
		ph.queue = append(ph.queue, ms(s.StartedAt.Sub(s.SubmittedAt)))
		ph.exec = append(ph.exec, ms(s.FinishedAt.Sub(*s.StartedAt)))
		ph.notify = append(ph.notify, ms(r.Terminal.Sub(*s.FinishedAt)))
	}
	return ph
}

// layerValues computes every per-layer metric of a traced pass. Job
// figures come from the pass's computed jobs; hit-read computes none, so
// its job figures describe the staging jobs whose results it reads.
func layerValues(p *pass) map[string]float64 {
	L := make(map[string]float64)
	maps.Copy(L, p.Layers)
	rtt := map[string][]float64{}
	for _, q := range p.Hits {
		rtt[opNames[q.Op]] = append(rtt[opNames[q.Op]], us(q.Done.Sub(q.Sent)))
	}
	for _, r := range p.Records {
		rtt["submit"] = append(rtt["submit"], us(r.Submitted.Sub(r.Send)))
		if !r.Status[0].IsZero() {
			rtt["status"] = append(rtt["status"], us(r.Status[1].Sub(r.Status[0])))
		}
		rtt["result"] = append(rtt["result"], us(r.Result[1].Sub(r.Result[0])))
	}
	for _, op := range opNames {
		L["server."+op+"_rtt_us"] = quantile(rtt[op], 0.5)
	}

	recs, d := p.Records, p.Delta
	if p.Workload == hitRead {
		recs, d = p.tmpl.Records, p.tmpl.Delta
	}
	ph := phasesOf(recs)
	L["jobs.admit_ms"] = quantile(ph.admit, 0.5)
	L["jobs.queue_wait_ms"] = quantile(ph.queue, 0.5)
	L["jobs.exec_ms"] = quantile(ph.exec, 0.5)
	L["jobs.notify_ms"] = quantile(ph.notify, 0.5)
	L["store.objects_per_job"] = ratio(d["store_objects"], d["jobs_completed_total"])
	L["telemetry.samples_per_job"] = ratio(d["telemetry_samples_total"], d["jobs_completed_total"])
	L["mgmt.audit_entries_per_req"] = ratio(p.Delta["mgmt_audit_entries_total"], float64(p.Requests))
	var trials []float64
	for _, r := range recs {
		var doc dra.MCResult
		if json.Unmarshal(r.Body, &doc) == nil {
			trials = append(trials, float64(doc.Trials))
		}
	}
	L["montecarlo.trials_per_job"] = quantile(trials, 0.5)

	b := budgetOf(p, L, endToEndValues(p)["latency_p50_ms"])
	L["budget.unattributed_ms"] = b.Latency - b.sum()
	L["budget.exec_overhead_ms"] = L["jobs.exec_ms"] - p.engineMs
	L["budget.service_frac"] = ratio(L["budget.exec_overhead_ms"], L["jobs.exec_ms"])
	return L
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// budget splits a traced latency_p50_ms into layer figures and the
// leftover budget.unattributed_ms, all in ms.
type budget struct {
	Latency float64            `json:"latency_p50_ms"`
	Terms   map[string]float64 `json:"terms_ms"`
}

func (b budget) sum() float64 {
	s := 0.0
	for _, v := range b.Terms {
		s += v
	}
	return s
}

// budgetOf returns the pass's latency budget. On hit-read the median
// request is a cache-hit resubmit, so the terms are the submit path's
// layers (JobID runs inside jobs.submit_hit_us); on the job workloads
// they are drad's lifecycle phases.
func budgetOf(p *pass, L map[string]float64, p50ms float64) budget {
	if p.Workload == hitRead {
		return budget{Latency: p50ms, Terms: map[string]float64{
			"config.parse_us":      L["config.parse_us"] / 1000,
			"jobs.submit_hit_us":   L["jobs.submit_hit_us"] / 1000,
			"mgmt.audit_append_us": L["mgmt.audit_append_us"] / 1000,
		}}
	}
	return budget{Latency: p50ms, Terms: map[string]float64{
		"jobs.admit_ms": L["jobs.admit_ms"], "jobs.queue_wait_ms": L["jobs.queue_wait_ms"],
		"jobs.exec_ms": L["jobs.exec_ms"], "jobs.notify_ms": L["jobs.notify_ms"],
	}}
}

// hostInfo records where and on what a run was measured.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	StateFS    string `json:"state_dir_fs"`
}

func host(stateDir string) hostInfo {
	h := hostInfo{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown", StateFS: fsType(stateDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		h.Commit += dirty
	}
	return h
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runFile is the result file: one run, one or more workloads.
type runFile struct {
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	StageS    float64                    `json:"stage_s"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult holds one workload's passes.
type workloadResult struct {
	Untraced *passResult `json:"untraced,omitempty"`
	Traced   *passResult `json:"traced,omitempty"`
	// OverheadFrac is traced latency_p50_ms / untraced − 1, when both
	// passes ran.
	OverheadFrac *float64 `json:"trace_overhead_frac,omitempty"`
}

// passResult is one pass as written to the result file.
type passResult struct {
	Correct   bool                 `json:"correct"`
	Valid     bool                 `json:"valid"` // generator lateness within bound
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Metrics   map[string]value     `json:"metrics"`
	Layers    map[string]value     `json:"layers,omitempty"`
	Samples   map[string]int       `json:"samples"`
	Lateness  float64              `json:"lateness_p99_ms,omitempty"`
	Phases    map[string]float64   `json:"phases_s"`
	SelfTimes map[string]spanStats `json:"self_times,omitempty"`
	Budget    *budget              `json:"budget,omitempty"`
}

// result assembles the pass's report. It fails when the computed
// metrics and the declared tables name different metrics.
func (p *pass) result() (*passResult, error) {
	r := &passResult{
		Correct: p.t.failed == 0, Attempted: p.t.attempted, Failed: p.t.failed, Errors: p.t.errs,
		Samples:  map[string]int{"setup": len(p.Setup), "latency": len(p.Latency), "lateness": len(p.Lateness), "requests": p.Requests, "drads": p.segs},
		Lateness: latenessP99Ms(p),
		Phases:   p.Phases,
	}
	r.Valid = r.Lateness <= maxLatenessMs
	e2e := endToEndValues(p)
	var err error
	if r.Metrics, err = declared(endToEnd, e2e); err != nil {
		return nil, err
	}
	if p.Traced {
		L := layerValues(p)
		defs := make([]metric, len(perLayer))
		for i, m := range perLayer {
			defs[i] = m.metric
		}
		if r.Layers, err = declared(defs, L); err != nil {
			return nil, err
		}
		r.SelfTimes = selfTimes(p.spans())
		b := budgetOf(p, L, e2e["latency_p50_ms"])
		b.Terms["budget.unattributed_ms"] = L["budget.unattributed_ms"]
		r.Budget = &b
	}
	return r, nil
}

// declared pairs computed values with their declared units, insisting
// that both name exactly the same metrics.
func declared(defs []metric, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %s was not computed", m.Name)
		}
		out[m.Name] = value{v, m.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("computed metric %s is not declared", name)
		}
	}
	return out, nil
}
