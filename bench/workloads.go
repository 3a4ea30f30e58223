package main

// Workload inputs and load generators. Every input is a pure function of the
// seed; the seeds inside the specs of each input family live in their
// own range, so no workload ever submits a staged job by accident.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	dra "repro"
	"repro/internal/config"
	"repro/internal/jobs"
)

// Workload names.
const (
	hitRead   = "hit-read"
	coldSmall = "cold-small"
	rareE5b   = "rare-e5b"
)

// workloads is the benchmark's workload list, mirrored by BENCHMARK.json.
var workloads = []struct{ Name, Why string }{
	{hitRead, "open-loop resubmits and reads of staged results: HTTP, spec parse, JobID, store lookup and the fsync'd audit append, with no runner"},
	{coldSmall, "closed-loop small reliability jobs: per-job fixed costs of admission, persistence, dispatch, settle, audit and telemetry"},
	{rareE5b, "sequential DRA(9,4) rare-event jobs at the paper's E5b point: the Monte-Carlo engine and simulator dominate"},
}

// plan fixes the sizes of one benchmark run.
type plan struct {
	Seed    uint64
	Seconds float64 // measured time of an untraced pass
	Staged  int     // jobs computed into the state-dir template
	Boots   int     // boots timed for setup_s
	// HitRate is hit-read's open-loop arrival rate in requests/s: on a
	// 2-CPU host the closed-loop capacity is 6000–11000 requests/s, so
	// the open loop measures latency, not a backlog.
	HitRate float64
	// RareReps is the replication count of each rare-e5b job; RareJobs,
	// when positive, fixes the job count instead of running jobs until
	// Seconds elapse.
	RareReps int
	RareJobs int
}

func defaultPlan(seed uint64, seconds float64) plan {
	return plan{
		Seed: seed, Seconds: seconds,
		Staged: 1024, Boots: 9, HitRate: 1000,
		// 5120 replications × 100 cycles = 512000 cycles: the budget at
		// which seed 5 reaches a ±10% CI under sequential stopping. A
		// fixed count keeps every job's work identical across seeds.
		RareReps: 5120,
	}
}

// e5bUnavailability is the GTH solution of the DRA(9,4) availability
// chain at μ = 1/3 (EXPERIMENTS.md, E5b).
const e5bUnavailability = 7.1993e-10

// Seed lanes keep the mc.seed ranges of the input families disjoint.
const (
	laneStaged = iota
	laneWarm
	laneCold
	laneRare
)

func mcSeed(seed uint64, lane, i int) uint64 {
	return 1 + seed<<22 + uint64(lane)<<20 + uint64(i)
}

// jobSpec is one generated input: the body sent and its job ID.
type jobSpec struct {
	Spec config.Spec
	Body []byte
	ID   string
}

func newJobSpec(s config.Spec) jobSpec {
	body, err := json.Marshal(s)
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	id, err := s.JobID()
	if err != nil {
		panic(fmt.Sprintf("generated spec invalid: %v", err))
	}
	return jobSpec{Spec: s, Body: body, ID: id}
}

func reliabilitySpec(seed uint64, lane, i, reps int) jobSpec {
	return newJobSpec(config.Spec{
		Kind:   config.KindReliability,
		Router: &config.RouterSpec{N: 4, M: 2},
		MC:     &config.MCSpec{Horizon: 1000, Reps: reps, Seed: mcSeed(seed, lane, i)},
	})
}

// stagedSpec is a tiny reliability job of the template.
func stagedSpec(seed uint64, i int) jobSpec { return reliabilitySpec(seed, laneStaged, i, 8) }

// coldSpec is a cold-small job (lane laneWarm for its warm-up jobs).
func coldSpec(seed uint64, lane, k int) jobSpec { return reliabilitySpec(seed, lane, k, 200) }

func rareSpec(seed uint64, k, reps int) jobSpec {
	return newJobSpec(config.Spec{
		Kind:   config.KindRareEvent,
		Router: &config.RouterSpec{N: 9, M: 4},
		MC: &config.MCSpec{
			Reps: reps, Mu: 0.333333333, Delta: 0.3,
			Batch: 1024, CyclesPerRep: 100, Seed: mcSeed(seed, laneRare, k),
		},
	})
}

// tally counts checked operations and failures; safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// check counts one operation, failed when err is non-nil, and reports
// whether it succeeded. The first few errors are kept for the report.
func (t *tally) check(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// template is the staged state dir every workload starts drad on.
type template struct {
	Dir     string
	Specs   []jobSpec
	Bodies  [][]byte    // result documents recorded at staging
	Records []jobRecord // the staging jobs, with drad's lifecycle stamps
	Delta   map[string]float64
	Took    time.Duration
}

// stage runs drad on an empty dir and computes pl.Staged distinct tiny
// jobs into it, two clients at a time. Any failure is fatal: every
// workload's answers are checked against what staging recorded.
func stage(bin, dir string, pl plan) (*template, error) {
	var t tally
	start := time.Now()
	tm := &template{Dir: dir, Specs: make([]jobSpec, pl.Staged), Bodies: make([][]byte, pl.Staged), Records: make([]jobRecord, pl.Staged)}
	for i := range tm.Specs {
		tm.Specs[i] = stagedSpec(pl.Seed, i)
	}
	proc, _, err := startDrad(bin, dir)
	if err != nil {
		return nil, err
	}
	c := newClient(proc.addr)
	defer c.close()
	before, err := scrapeMetrics(c)
	if err != nil {
		proc.kill()
		return nil, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < maxConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < pl.Staged; i = int(next.Add(1) - 1) {
				rec, err := c.runJob(tm.Specs[i].Body, tm.Specs[i].ID, true)
				if t.check(err) {
					tm.Records[i], tm.Bodies[i] = rec, rec.Body
				}
			}
		}()
	}
	wg.Wait()
	after, err := scrapeMetrics(c)
	if err != nil {
		proc.kill()
		return nil, err
	}
	tm.Delta = delta(before, after)
	if err := proc.stop(); err != nil {
		return nil, err
	}
	tm.Took = time.Since(start)
	if t.failed > 0 {
		return nil, fmt.Errorf("staging failed: %v", t.errs)
	}
	return tm, nil
}

func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// pass is one workload run: its inputs, the drads it ran, and everything
// it measured.
type pass struct {
	Workload string
	Traced   bool
	plan     plan
	tmpl     *template
	bin      string
	runDir   string
	c        *client // the current segment's client
	t        tally
	segs     int

	Dir       string          // state dir of the latest segment
	Setup     []float64       // boot times, s
	PeakRSSMB float64         // highest VmHWM over the segments
	Latency   []time.Duration // per request (hit-read) or per job
	Lateness  []time.Duration // hit-read open loop: actual − scheduled send
	Through   float64         // requests/s, jobs/s or cycles/s
	Requests  int             // HTTP requests sent, warm-up included
	Phases    map[string]float64
	Hits      []hitReq           // hit-read open-loop requests
	Records   []jobRecord        // computed jobs (cold-small, rare-e5b)
	finalFrom int                // first record of the latest segment
	Delta     map[string]float64 // /metrics deltas, summed over segments
	Layers    map[string]float64 // traced: the layer phase's figures
	engineMs  float64            // traced: the engine alone on the workload's job, ms
}

// runPass times pl.Boots boots of drad on the template, drives the
// workload, and (traced) runs the layer phase.
func runPass(bin, runDir string, pl plan, tm *template, workload string, traced bool) (*pass, error) {
	p := &pass{Workload: workload, Traced: traced, plan: pl, tmpl: tm, bin: bin, runDir: runDir,
		Phases: map[string]float64{}, Delta: map[string]float64{}}
	defer func() { os.RemoveAll(p.Dir) }()
	start := time.Now()
	if err := p.timeBoots(); err != nil {
		return nil, err
	}
	p.Phases["boot_s"] = time.Since(start).Seconds()
	seconds := pl.Seconds
	if traced && workload != rareE5b {
		seconds /= 2
	}
	var err error
	switch workload {
	case hitRead:
		err = p.segment(func() error { return p.hitRead(seconds) })
	case coldSmall:
		err = p.coldSmall(seconds)
	case rareE5b:
		jobs := pl.RareJobs
		if traced {
			jobs = 1
		}
		err = p.segment(func() error { return p.rareE5b(seconds, jobs) })
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		start := time.Now()
		if err := p.layerPhase(); err != nil {
			return nil, fmt.Errorf("layer phase: %w", err)
		}
		p.Phases["layers_s"] = time.Since(start).Seconds()
	}
	return p, nil
}

// timeBoots boots and stops drad pl.Boots times on a copy of the
// template, recording the time from exec to the first 200 of /healthz.
func (p *pass) timeBoots() error {
	dir := filepath.Join(p.runDir, "boots")
	defer os.RemoveAll(dir)
	if err := copyDir(p.tmpl.Dir, dir); err != nil {
		return err
	}
	for i := 0; i < p.plan.Boots; i++ {
		proc, took, err := startDrad(p.bin, dir)
		if err != nil {
			return err
		}
		p.Setup = append(p.Setup, took.Seconds())
		if err := proc.stop(); err != nil {
			return err
		}
	}
	return nil
}

// segment runs fn against a fresh drad on a fresh copy of the template,
// then reads drad's peak RSS and stops it. The previous segment's state
// dir is removed; the latest one stays for the layer phase.
func (p *pass) segment(fn func() error) error {
	os.RemoveAll(p.Dir)
	p.segs++
	p.Dir = filepath.Join(p.runDir, fmt.Sprintf("%s-traced%t-%d", p.Workload, p.Traced, p.segs))
	if err := copyDir(p.tmpl.Dir, p.Dir); err != nil {
		return err
	}
	proc, _, err := startDrad(p.bin, p.Dir)
	if err != nil {
		return err
	}
	p.c = newClient(proc.addr)
	defer p.c.close()
	fail := func(err error) error {
		proc.kill()
		return err
	}
	before, err := scrapeMetrics(p.c)
	if err != nil {
		return fail(err)
	}
	sent := p.c.sent.Load()
	p.finalFrom = len(p.Records)
	if err := fn(); err != nil {
		return fail(err)
	}
	p.Requests += int(p.c.sent.Load() - sent)
	after, err := scrapeMetrics(p.c)
	if err != nil {
		return fail(err)
	}
	for k, v := range delta(before, after) {
		p.Delta[k] += v
	}
	rss, err := proc.peakRSSMB()
	if err != nil {
		return fail(err)
	}
	p.PeakRSSMB = max(p.PeakRSSMB, rss)
	return proc.stop()
}

// Hit-read request kinds and their shares of the mix. Submits are 60%
// so that the median request is a resubmit: with 50% the median would
// sit on the gap between the fast GETs and the fsync'd submits and jump
// between them from seed to seed.
const (
	opSubmit = iota
	opStatus
	opResult
)

var opNames = [...]string{"submit", "status", "result"}

func pickOp(r *rand.Rand) int {
	switch u := r.Float64(); {
	case u < 0.6:
		return opSubmit
	case u < 0.8:
		return opStatus
	default:
		return opResult
	}
}

// hitReq is one open-loop request: what it asks, when it was due, when
// it was sent and when its answer was read.
type hitReq struct {
	Op, Idx         int
	At              time.Duration // due time, from the start of the loop
	Due, Sent, Done time.Time
}

// hitOnce performs one hit-read request and checks its answer.
func (p *pass) hitOnce(op, idx int) error {
	s := p.tmpl.Specs[idx]
	switch op {
	case opSubmit:
		code, snap, err := p.c.submit(s.Body)
		switch {
		case err != nil:
			return err
		case code != http.StatusOK || !snap.Cached || snap.ID != s.ID || snap.State != jobs.StateDone:
			return fmt.Errorf("resubmit %d: status %d cached %t id %s state %s", idx, code, snap.Cached, snap.ID, snap.State)
		}
	case opStatus:
		code, snap, err := p.c.status(s.ID)
		switch {
		case err != nil:
			return err
		case code != http.StatusOK || snap.ID != s.ID || snap.State != jobs.StateDone:
			return fmt.Errorf("status %d: status %d id %s state %s", idx, code, snap.ID, snap.State)
		}
	case opResult:
		code, body, err := p.c.do("GET", "/v1/jobs/"+s.ID+"/result", nil)
		switch {
		case err != nil:
			return err
		case code != http.StatusOK || !bytes.Equal(body, p.tmpl.Bodies[idx]):
			return fmt.Errorf("result %d: status %d, body differs from staging", idx, code)
		}
	}
	return nil
}

// hitRead warms every staged job (a resubmit creates its record after
// the restart; a result read loads its object into the hot layer), then
// runs the open loop for 2/3 of the time and the closed-loop capacity
// phase for the rest.
func (p *pass) hitRead(seconds float64) error {
	start := time.Now()
	for i := range p.tmpl.Specs {
		p.t.check(p.hitOnce(opSubmit, i))
		p.t.check(p.hitOnce(opResult, i))
	}
	p.Phases["warmup_s"] = time.Since(start).Seconds()

	// Open loop: seeded Poisson arrivals, each sent on its own goroutine
	// at its due time whatever the state of earlier requests.
	open := time.Duration(seconds * 2 / 3 * float64(time.Second))
	r := rand.New(rand.NewPCG(p.plan.Seed, 1))
	var sched []hitReq
	for at := time.Duration(0); ; {
		at += time.Duration(r.ExpFloat64() / p.plan.HitRate * float64(time.Second))
		if at >= open {
			break
		}
		sched = append(sched, hitReq{Op: pickOp(r), Idx: r.IntN(len(p.tmpl.Specs)), At: at})
	}
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range sched {
		q := &sched[i]
		q.Due = t0.Add(q.At)
		sleepUntil(q.Due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Sent = time.Now()
			err := p.hitOnce(q.Op, q.Idx)
			q.Done = time.Now()
			p.t.check(err)
		}()
	}
	wg.Wait()
	p.Phases["open_loop_s"] = time.Since(t0).Seconds()
	p.Hits = sched
	for _, q := range sched {
		p.Latency = append(p.Latency, q.Done.Sub(q.Due))
		p.Lateness = append(p.Lateness, q.Sent.Sub(q.Due))
	}

	// Capacity: maxConns closed loops over the same mix.
	capDur := time.Duration(seconds / 3 * float64(time.Second))
	var done atomic.Int64
	cs := time.Now()
	deadline := cs.Add(capDur)
	for g := 0; g < maxConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(p.plan.Seed, uint64(2+g)))
			for time.Now().Before(deadline) {
				if p.t.check(p.hitOnce(pickOp(r), r.IntN(len(p.tmpl.Specs)))) {
					done.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	took := time.Since(cs)
	p.Phases["capacity_s"] = took.Seconds()
	p.Through = float64(done.Load()) / took.Seconds()
	return nil
}

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's own timers wake sub-millisecond sleeps up to a millisecond
// late, which would show up as generator lateness.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// coldSegmentJobs bounds the jobs one drad computes in cold-small.
// drad keeps every finished job's record, with its 4096-event trace
// ring, until 4096 records exist: about 0.6 MB per job, 2 GB at the
// cap. Fresh drads every 512 jobs keep the benchmark's memory small and
// its peak_rss_mb a fixed-work figure.
const coldSegmentJobs = 512

// coldSmall runs maxConns closed-loop clients, each submitting a fresh
// small reliability job and waiting for its terminal event, for the
// given time, on a fresh drad every coldSegmentJobs jobs, each after a
// short warm-up. One job in 64 is recomputed in process afterwards and
// must match drad's result byte for byte.
func (p *pass) coldSmall(seconds float64) error {
	var next atomic.Int64
	var measured time.Duration
	var mu sync.Mutex
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		err := p.segment(func() error {
			ws := time.Now()
			p.closedLoop(laneWarm, new(atomic.Int64), 16, time.Time{}, func(jobRecord) {})
			p.Phases["warmup_s"] += time.Since(ws).Seconds()
			ms := time.Now()
			p.closedLoop(laneCold, &next, next.Load()+coldSegmentJobs, deadline, func(rec jobRecord) {
				mu.Lock()
				p.Records = append(p.Records, rec)
				mu.Unlock()
			})
			measured += time.Since(ms)
			return nil
		})
		if err != nil {
			return err
		}
	}
	p.Phases["measure_s"] = measured.Seconds()
	p.Through = float64(len(p.Records)) / measured.Seconds()
	for _, rec := range p.Records {
		p.Latency = append(p.Latency, rec.latency())
	}

	vs := time.Now()
	for _, rec := range p.Records {
		if k := p.coldIndex(rec); k%64 == 0 {
			p.t.check(checkReliability(coldSpec(p.plan.Seed, laneCold, k), rec.Body))
		}
	}
	p.Phases["verify_s"] = time.Since(vs).Seconds()
	return nil
}

// coldIndex recovers a cold-small record's job index from its seed.
func (p *pass) coldIndex(rec jobRecord) int {
	var s config.Spec
	if json.Unmarshal(rec.Spec, &s) != nil || s.MC == nil {
		return -1
	}
	return int(s.MC.Seed - mcSeed(p.plan.Seed, laneCold, 0))
}

// closedLoop runs maxConns clients over coldSpec(seed, lane, k), taking
// k from next, while k < limit and (for a non-zero deadline) time
// remains.
func (p *pass) closedLoop(lane int, next *atomic.Int64, limit int64, deadline time.Time, keep func(jobRecord)) {
	var wg sync.WaitGroup
	for g := 0; g < maxConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= limit || (!deadline.IsZero() && !time.Now().Before(deadline)) {
					return
				}
				s := coldSpec(p.plan.Seed, lane, int(k))
				rec, err := p.c.runJob(s.Body, s.ID, p.Traced)
				if p.t.check(err) {
					keep(rec)
				}
			}
		}()
	}
	wg.Wait()
}

// rareE5b runs rare-event jobs one after another: n of them when n > 0,
// else until the given time has elapsed. Each estimate must lie within
// 4 × its relative CI half-width of the GTH value and fold exactly the
// fixed cycle budget.
func (p *pass) rareE5b(seconds float64, n int) error {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var cycles uint64
	var busy time.Duration
	for k := 0; (n > 0 && k < n) || (n <= 0 && time.Now().Before(deadline)); k++ {
		s := rareSpec(p.plan.Seed, k, p.plan.RareReps)
		rec, err := p.c.runJob(s.Body, s.ID, p.Traced)
		var doc dra.MCResult
		if err == nil {
			doc, err = checkRare(rec.Body, p.plan.RareReps)
		}
		if !p.t.check(err) {
			continue
		}
		cycles += doc.Trials
		p.Records = append(p.Records, rec)
		p.Latency = append(p.Latency, rec.latency())
		busy += rec.latency()
	}
	p.Phases["measure_s"] = time.Since(start).Seconds()
	if busy > 0 {
		p.Through = float64(cycles) / busy.Seconds()
	}
	return nil
}

// checkRare validates one rare-e5b result document.
func checkRare(body []byte, reps int) (dra.MCResult, error) {
	var doc dra.MCResult
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("rare-e5b result: %w", err)
	}
	if want := uint64(reps) * 100; doc.Trials != want {
		return doc, fmt.Errorf("rare-e5b: %d cycles, want %d", doc.Trials, want)
	}
	if dev := math.Abs(doc.Estimate/e5bUnavailability - 1); !(dev <= 4*doc.RelErr) {
		return doc, fmt.Errorf("rare-e5b: estimate %g is %.1f%% off %g, beyond 4 × rel_err %.3f", doc.Estimate, 100*dev, e5bUnavailability, doc.RelErr)
	}
	return doc, nil
}
