// Package simbench measures the DES core hot paths: the rare-event Monte
// Carlo loop at the paper's E5b point and a raw kernel schedule+pop
// cycle. The drad benchmark's per-layer sim metrics are taken from it.
package simbench

import (
	"testing"

	"repro/internal/linecard"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Metric is one benchmark's outcome.
type Metric struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// EventsPerSec and NsPerEvent are set only for benchmarks that
	// process kernel events (the rare-event loop).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	NsPerEvent   float64 `json:"ns_per_event,omitempty"`
	// AllocsPerEvent amortizes per-op allocations (replication setup)
	// over the events each op processes.
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
}

// rareEventCycles runs the exact hot loop of montecarlo's
// unavailability estimator: one DRA router, balanced failure biasing,
// `cycles` regenerative cycles. Returns kernel events processed.
func rareEventCycles(seed uint64, cycles int) uint64 {
	const (
		n        = 9
		m        = 4
		targetLC = 0
	)
	src := xrand.New(seed)
	cfg := router.UniformConfig(linecard.DRA, n, m)
	cfg.Source = src
	r, err := router.New(cfg)
	if err != nil {
		panic(err)
	}
	r.InstallUniformRoutes()
	inj, err := router.NewInjector(r, router.PaperRates(1.0/3))
	if err != nil {
		panic(err)
	}
	b := router.Biasing{Enabled: true}
	b.StopWhen = func() bool { return !r.CanDeliverCached(targetLC) }
	if err := inj.SetBiasing(b); err != nil {
		panic(err)
	}
	inj.Start()
	k := r.Kernel()
	done := 0
	repairs := inj.Repairs
	wentDown := false
	for done < cycles {
		if !k.Step() {
			break
		}
		if !wentDown && !r.CanDeliverCached(targetLC) {
			wentDown = true
		}
		if inj.Repairs != repairs {
			repairs = inj.Repairs
			inj.CheckpointLR()
			done++
			wentDown = false
		}
	}
	return k.Processed
}

func toMetric(r testing.BenchmarkResult) Metric {
	return Metric{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
}

// RunRareEvent benchmarks 200 regenerative rare-event cycles per op.
func RunRareEvent() Metric {
	var events, ops uint64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		events, ops = 0, 0
		for i := 0; i < b.N; i++ {
			events += rareEventCycles(uint64(i)+1, 200)
			ops++
		}
	})
	m := toMetric(res)
	if ops > 0 && events > 0 {
		perOp := float64(events) / float64(ops)
		m.NsPerEvent = m.NsPerOp / perOp
		m.EventsPerSec = 1e9 / m.NsPerEvent
		m.AllocsPerEvent = m.AllocsPerOp / perOp
	}
	return m
}

// RunScheduler benchmarks a schedule+pop cycle through the kernel.
func RunScheduler() Metric {
	k := sim.NewKernel()
	fn := func() {}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.Schedule(k.Now()+1, fn)
			k.Step()
		}
	})
	return toMetric(res)
}
