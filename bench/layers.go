package main

// The layer phase of a traced pass: with drad stopped, one goroutine
// calls each layer's public functions on the pass's own inputs and state
// dir and times every call. It also holds the in-process recomputations
// the answer checks compare drad's results against.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	dra "repro"
	"repro/internal/config"
	"repro/internal/jobs"
	"repro/internal/linecard"
	"repro/internal/mgmt"
	"repro/internal/montecarlo"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/simbench"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// mcOptions builds the engine options drad's runner builds for a
// reliability or rareevent spec (service.go), without the checkpoint
// and telemetry hooks, which do not change the estimate.
func mcOptions(s config.Spec) montecarlo.Options {
	sp := s.Normalize()
	mu := 0.0
	if sp.Kind != config.KindReliability {
		mu = sp.MC.Mu
	}
	opt := montecarlo.Options{
		Arch: linecard.DRA, N: sp.Router.N, M: sp.Router.M, Rates: router.PaperRates(mu),
		Horizon: sp.MC.Horizon, Reps: sp.MC.Reps, Seed: sp.MC.Seed,
		Workers: sp.MC.Workers, TargetRelErr: sp.MC.TargetRelErr,
		Batch: sp.MC.Batch, CyclesPerRep: sp.MC.CyclesPerRep,
	}
	if sp.Kind == config.KindRareEvent && sp.MC.Delta > 0 {
		opt.Biasing = router.Biasing{Enabled: true, Delta: sp.MC.Delta}
	}
	if opt.Batch <= 0 && opt.TargetRelErr <= 0 {
		opt.Batch = montecarlo.DefaultBatch
	}
	return opt
}

// reliabilityDoc computes a reliability spec's result document in
// process, field for field as drad's runner encodes it.
func reliabilityDoc(s config.Spec) ([]byte, error) {
	res, err := montecarlo.EstimateReliability(mcOptions(s))
	if err != nil {
		return nil, err
	}
	sp := s.Normalize()
	doc := dra.MCResult{
		Kind: sp.Kind, Arch: "DRA", N: sp.Router.N, M: sp.Router.M,
		Estimate: res.Estimate(), Trials: uint64(res.Failure.N()), StopReason: res.StopReason,
	}
	doc.CILo, doc.CIHi = res.CI()
	if res.TTF.N() > 0 {
		doc.MeanTTF = res.TTF.Mean()
	}
	return json.Marshal(doc)
}

// checkReliability recomputes a cold job and compares it with drad's
// result byte for byte.
func checkReliability(s jobSpec, body []byte) error {
	want, err := reliabilityDoc(s.Spec)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, body) {
		return fmt.Errorf("job %s: drad returned %s, in-process estimate gives %s", s.ID, body, want)
	}
	return nil
}

// timeCalls calls f(0), f(1), … in n batches of batch calls and returns
// each batch's mean time per call, in ns. Batches let calls shorter than
// the clock's resolution be timed.
func timeCalls(n, batch int, f func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for b := range out {
		t := time.Now()
		for i := b * batch; i < (b+1)*batch; i++ {
			if err := f(i); err != nil {
				return nil, err
			}
		}
		out[b] = float64(time.Since(t)) / float64(batch)
	}
	return out, nil
}

// median returns the median of ns-valued samples in the given unit.
func median(ns []float64, unit time.Duration) float64 {
	return quantile(ns, 0.5) / float64(unit)
}

// workloadInputs returns the specs and result documents of the jobs the
// pass's workload touched in its latest state dir: the staged jobs for
// hit-read, the computed jobs otherwise.
func (p *pass) workloadInputs() ([]jobSpec, [][]byte) {
	if p.Workload == hitRead {
		return p.tmpl.Specs, p.tmpl.Bodies
	}
	recs := p.Records[p.finalFrom:]
	specs := make([]jobSpec, len(recs))
	bodies := make([][]byte, len(recs))
	for i, rec := range recs {
		var s config.Spec
		if err := json.Unmarshal(rec.Spec, &s); err != nil {
			panic(err) // the harness generated these bytes
		}
		specs[i] = newJobSpec(s)
		bodies[i] = rec.Body
	}
	return specs, bodies
}

// layerPhase fills p.Layers with the in-process timings.
func (p *pass) layerPhase() error {
	specs, bodies := p.workloadInputs()
	if len(specs) == 0 {
		return fmt.Errorf("no %s inputs to time", p.Workload)
	}
	scratch := filepath.Join(p.Dir, "layers")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	p.Layers = make(map[string]float64)
	for _, step := range []struct {
		name string
		run  func(L map[string]float64, specs []jobSpec, bodies [][]byte, scratch string) error
	}{
		{"config", p.configLayers},
		{"mgmt", p.mgmtLayers},
		{"store", p.storeLayers},
		{"jobs", p.jobsLayers},
		{"telemetry", p.telemetryLayers},
		{"montecarlo", p.montecarloLayers},
		{"sim", p.simLayers},
	} {
		if err := step.run(p.Layers, specs, bodies, scratch); err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
	}
	return nil
}

func (p *pass) configLayers(L map[string]float64, specs []jobSpec, _ [][]byte, _ string) error {
	n := len(specs)
	ns, err := timeCalls(200, 10, func(i int) error { _, err := config.ParseSpec(specs[i%n].Body); return err })
	if err != nil {
		return err
	}
	L["config.parse_us"] = median(ns, time.Microsecond)
	ns, err = timeCalls(200, 10, func(i int) error { _, err := specs[i%n].Spec.JobID(); return err })
	L["config.jobid_us"] = median(ns, time.Microsecond)
	return err
}

// mgmtLayers times the fsync'd audit append in a scratch log on the
// state dir's filesystem, and reopening the staged log.
func (p *pass) mgmtLayers(L map[string]float64, specs []jobSpec, _ [][]byte, scratch string) error {
	n := len(specs)
	a, err := mgmt.OpenAudit(filepath.Join(scratch, "audit.log"), 0)
	if err != nil {
		return err
	}
	ns, err := timeCalls(200, 1, func(i int) error {
		_, err := a.Append(mgmt.Entry{Tenant: "default", Verb: string(mgmt.VerbSubmit), Job: specs[i%n].ID, Outcome: "cache", Detail: specs[i%n].Spec.Kind})
		return err
	})
	if cerr := a.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	L["mgmt.audit_append_us"] = median(ns, time.Microsecond)
	ns, err = timeCalls(5, 1, func(int) error {
		a, err := mgmt.OpenAudit(filepath.Join(p.tmpl.Dir, "audit.log"), 0)
		if err != nil {
			return err
		}
		return a.Close()
	})
	L["mgmt.audit_open_ms"] = median(ns, time.Millisecond)
	return err
}

// storeLayers times store.Open over the staged cache, Has/Get over the
// pass's own results, and Put into a scratch store.
func (p *pass) storeLayers(L map[string]float64, specs []jobSpec, bodies [][]byte, scratch string) error {
	n := len(specs)
	ns, err := timeCalls(5, 1, func(int) error {
		_, err := store.Open(filepath.Join(p.tmpl.Dir, "cache"), store.Options{})
		return err
	})
	if err != nil {
		return err
	}
	L["store.open_ms"] = median(ns, time.Millisecond)

	hot, err := store.Open(filepath.Join(p.Dir, "cache"), store.Options{})
	if err != nil {
		return err
	}
	if ns, err = timeCalls(200, 100, func(i int) error {
		if !hot.Has(specs[i%n].ID) {
			return fmt.Errorf("store lacks %s", specs[i%n].ID)
		}
		return nil
	}); err != nil {
		return err
	}
	L["store.has_ns"] = median(ns, time.Nanosecond)
	get := func(st *store.Store) func(i int) error {
		return func(i int) error {
			b, err := st.Get(specs[i%n].ID)
			if err == nil && !bytes.Equal(b, bodies[i%n]) {
				err = fmt.Errorf("store object %s differs from drad's answer", specs[i%n].ID)
			}
			return err
		}
	}
	if _, err := timeCalls(n, 1, get(hot)); err != nil { // fill the hot layer
		return err
	}
	if ns, err = timeCalls(200, 100, get(hot)); err != nil {
		return err
	}
	L["store.get_hot_us"] = median(ns, time.Microsecond)
	cold, err := store.Open(filepath.Join(p.Dir, "cache"), store.Options{HotBytes: -1})
	if err != nil {
		return err
	}
	if ns, err = timeCalls(200, 10, get(cold)); err != nil {
		return err
	}
	L["store.get_disk_us"] = median(ns, time.Microsecond)

	sc, err := store.Open(filepath.Join(scratch, "put"), store.Options{})
	if err != nil {
		return err
	}
	ns, err = timeCalls(200, 1, func(i int) error {
		key := sha256.Sum256([]byte(strconv.Itoa(i)))
		return sc.Put(hex.EncodeToString(key[:]), bodies[i%n])
	})
	L["store.put_us"] = median(ns, time.Microsecond)
	return err
}

// jobsLayers times jobs.NewManager's recovery over the staged state dir
// and Manager.Submit of specs whose results the pass's store holds.
func (p *pass) jobsLayers(L map[string]float64, specs []jobSpec, _ [][]byte, _ string) error {
	ctx := context.Background()
	var ns []float64
	for i := 0; i < 5; i++ {
		st, err := store.Open(filepath.Join(p.tmpl.Dir, "cache"), store.Options{})
		if err != nil {
			return err
		}
		t := time.Now()
		m, err := jobs.NewManager(jobs.Options{Store: st, Dir: p.tmpl.Dir, Runners: dra.DefaultRunners()})
		if err != nil {
			return err
		}
		ns = append(ns, float64(time.Since(t)))
		if err := m.Drain(ctx); err != nil {
			return err
		}
	}
	L["jobs.recover_ms"] = median(ns, time.Millisecond)

	st, err := store.Open(filepath.Join(p.Dir, "cache"), store.Options{})
	if err != nil {
		return err
	}
	m, err := jobs.NewManager(jobs.Options{Store: st, Runners: dra.DefaultRunners()})
	if err != nil {
		return err
	}
	n := len(specs)
	ns, err = timeCalls(200, 10, func(i int) error {
		snap, err := m.Submit(specs[i%n].Spec)
		if err == nil && !snap.Cached {
			err = fmt.Errorf("in-process submit of %s was not a cache hit", specs[i%n].ID)
		}
		return err
	})
	if derr := m.Drain(ctx); err == nil {
		err = derr
	}
	L["jobs.submit_hit_us"] = median(ns, time.Microsecond)
	return err
}

// telemetryLayers times Hub.Ingest over a store-backed hub; batches of
// 16 include the one series flush every 16 ingests.
func (p *pass) telemetryLayers(L map[string]float64, specs []jobSpec, _ [][]byte, scratch string) error {
	st, err := store.Open(filepath.Join(scratch, "telemetry"), store.Options{})
	if err != nil {
		return err
	}
	hub, err := telemetry.New(telemetry.Options{Store: st})
	if err != nil {
		return err
	}
	ns, err := timeCalls(64, 16, func(i int) error {
		return hub.Ingest(telemetry.Sample{Job: specs[0].ID, Kind: specs[0].Spec.Kind, Window: uint64(i + 1), Estimate: 0.5, RelErr: 0.1, Trials: uint64(i + 1)})
	})
	L["telemetry.ingest_us"] = median(ns, time.Microsecond)
	return err
}

// montecarloLayers times the engines called directly: the cold-small
// reliability estimate, its checkpoint write, and one rare-e5b estimate,
// which on rare-e5b must equal drad's answer for the same seed exactly.
// It also times the engine on the workload's own first job, against
// which budget.exec_overhead_ms is taken.
func (p *pass) montecarloLayers(L map[string]float64, specs []jobSpec, _ [][]byte, scratch string) error {
	cold := coldSpec(p.plan.Seed, laneCold, 0)
	ns, err := timeCalls(5, 1, func(int) error { _, err := reliabilityDoc(cold.Spec); return err })
	if err != nil {
		return err
	}
	L["montecarlo.reliability_ms"] = median(ns, time.Millisecond)

	opt := mcOptions(cold.Spec)
	var cp montecarlo.Checkpoint
	opt.OnBatch = func(c montecarlo.Checkpoint) { cp = c }
	if _, err := montecarlo.EstimateReliability(opt); err != nil {
		return err
	}
	path := filepath.Join(scratch, "job.ckpt")
	if ns, err = timeCalls(50, 1, func(int) error { return cp.WriteFile(path) }); err != nil {
		return err
	}
	L["montecarlo.checkpoint_write_us"] = median(ns, time.Microsecond)

	rare := rareSpec(p.plan.Seed, 0, p.plan.RareReps)
	t := time.Now()
	res, err := montecarlo.EstimateUnavailability(mcOptions(rare.Spec))
	if err != nil {
		return err
	}
	took := time.Since(t)
	L["montecarlo.cycles_per_s"] = float64(res.Cycles) / took.Seconds()
	switch p.Workload {
	case rareE5b:
		p.engineMs = ms(took)
		if len(p.Records) > 0 && bytes.Equal(p.Records[0].Spec, rare.Body) {
			var doc dra.MCResult
			err := json.Unmarshal(p.Records[0].Body, &doc)
			if err == nil && (doc.Estimate != res.Estimate() || doc.Trials != res.Cycles) {
				err = fmt.Errorf("rare-e5b seed %d: drad gave %v from %d cycles, in process %v from %d",
					rare.Spec.MC.Seed, doc.Estimate, doc.Trials, res.Estimate(), res.Cycles)
			}
			p.t.check(err)
		}
	default:
		ns, err := timeCalls(5, 1, func(int) error { _, err := reliabilityDoc(specs[0].Spec); return err })
		if err != nil {
			return err
		}
		p.engineMs = median(ns, time.Millisecond)
	}
	return nil
}

// simLayers times the DES kernel: simbench's rare-event loop, and a
// Schedule+Step cycle as simbench.RunScheduler runs it, averaged over
// batches so the figure keeps its fraction of a nanosecond.
func (p *pass) simLayers(L map[string]float64, _ []jobSpec, _ [][]byte, _ string) error {
	rare := simbench.RunRareEvent()
	L["sim.ns_per_event"] = rare.NsPerEvent
	L["sim.allocs_per_event"] = rare.AllocsPerEvent
	k := sim.NewKernel()
	fn := func() {}
	ns, err := timeCalls(200, 10000, func(int) error {
		k.Schedule(k.Now()+1, fn)
		k.Step()
		return nil
	})
	L["sim.scheduler_ns"] = median(ns, time.Nanosecond)
	return err
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
