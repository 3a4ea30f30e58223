package metrics

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentWorkersShareRegistry hammers one registry from many
// goroutines the way parallel Monte-Carlo replications do: each worker
// re-registers the same families (idempotent), bumps shared instruments,
// and creates labeled children, while a reader keeps rendering
// expositions. Run under -race (make race) to prove the registry is
// safe to share.
func TestConcurrentWorkersShareRegistry(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 200

	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() { // concurrent exposition, as the HTTP handler would do
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.PrometheusText()
				_, _ = r.SnapshotJSON()
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Per-replication instrumentation: same names every time.
				c := r.Counter("mc_trials_total", "trials")
				g := r.Gauge("mc_now", "sim clock")
				h := r.Histogram("mc_latency", "", []float64{1, 2, 4, 8})
				v := r.CounterVec("mc_drops_total", "", "reason")
				r.GaugeFunc("mc_ratio", "", func() float64 { return float64(w) })

				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 10))
				v.With(fmt.Sprintf("reason-%d", i%3)).Inc()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := r.Counter("mc_trials_total", "").Value(); got != workers*iters {
		t.Fatalf("trials = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("mc_latency", "", []float64{1, 2, 4, 8}).Count(); got != workers*iters {
		t.Fatalf("observations = %d, want %d", got, workers*iters)
	}
}

// TestFoldWhileExposing is the Monte-Carlo batch pattern: workers fill
// registries of their own, the batch loop folds them into the job registry,
// and an exposition goroutine reads the job registry throughout.
func TestFoldWhileExposing(t *testing.T) {
	job := NewRegistry()
	const workers, batches = 4, 50

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = job.PrometheusText()
			}
		}
	}()
	for b := 0; b < batches; b++ {
		locals := make([]*Registry, workers)
		var wg sync.WaitGroup
		for w := range locals {
			locals[w] = NewRegistry()
			wg.Add(1)
			go func(r *Registry) {
				defer wg.Done()
				r.Counter("mc_events_total", "").Inc()
				r.Histogram("mc_latency", "", []float64{1, 2}).Observe(1)
				r.Gauge("mc_now", "").Set(float64(b))
			}(locals[w])
		}
		wg.Wait()
		for _, r := range locals {
			job.Fold(r)
		}
	}
	close(stop)
	reader.Wait()
	if got := job.Counter("mc_events_total", "").Value(); got != workers*batches {
		t.Fatalf("events = %d, want %d", got, workers*batches)
	}
}
