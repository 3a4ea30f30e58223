package montecarlo

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/linecard"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/xrand"
)

// foldTotals is every counter sample and every histogram's bucket
// counts of a registry: the part of a job registry that must not depend
// on how replications were spread over workers.
type foldTotals struct {
	Counters   map[string]uint64   `json:"counters"`
	Histograms map[string][]uint64 `json:"histograms"`
}

func totalsOf(reg *metrics.Registry) foldTotals {
	t := foldTotals{Counters: map[string]uint64{}, Histograms: map[string][]uint64{}}
	for _, f := range reg.Snapshot() {
		switch {
		case f.Histogram != nil:
			t.Histograms[f.Name] = f.Histogram.Counts
		case f.Kind == metrics.KindCounter.String():
			for _, s := range f.Samples {
				key := f.Name
				if len(s.LabelValues) > 0 {
					pairs := make([]string, len(s.LabelValues))
					for i, v := range s.LabelValues {
						pairs[i] = f.LabelNames[i] + "=" + v
					}
					key += "{" + strings.Join(pairs, ",") + "}"
				}
				t.Counters[key] = uint64(s.Value)
			}
		}
	}
	return t
}

// foldCases are one small rare-event run and one small reliability run,
// each several batches long so that worker registries fold more than
// once.
var foldCases = []struct {
	name string
	opt  Options
	run  func(Options) error
}{
	{
		name: "rareevent",
		opt: Options{
			Arch: linecard.DRA, N: 4, M: 2,
			Rates: router.PaperRates(1.0 / 3), Reps: 40, Seed: 5,
			Biasing: router.Biasing{Enabled: true, Delta: 0.3},
			Batch:   16, CyclesPerRep: 20,
		},
		run: func(o Options) error { _, err := EstimateUnavailability(o); return err },
	},
	{
		name: "reliability",
		opt: Options{
			Arch: linecard.DRA, N: 6, M: 3,
			Rates:   router.PaperRates(0),
			Horizon: 40000, Reps: 48, Seed: 17, Batch: 16,
		},
		run: func(o Options) error { _, err := EstimateReliability(o); return err },
	},
}

// TestWorkerRegistriesFoldToSharedTotals pins the per-worker
// instrumentation: whatever the worker count, the job registry's
// counters and histogram buckets reach the totals in
// testdata/fold_totals.json. Those were recorded from the engine's
// earlier wiring, in which every replication's router wrote
// Options.Metrics directly; each replication is deterministic per seed,
// so the totals are fixed numbers.
func TestWorkerRegistriesFoldToSharedTotals(t *testing.T) {
	path := filepath.Join("testdata", "fold_totals.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]foldTotals
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range foldCases {
		for _, w := range []int{1, 2, 4} {
			reg := metrics.NewRegistry()
			opt := c.opt
			opt.Workers, opt.Metrics = w, reg
			if err := c.run(opt); err != nil {
				t.Fatal(err)
			}
			if diff := diffTotals(totalsOf(reg), want[c.name]); diff != "" {
				t.Errorf("%s Workers=%d: %s", c.name, w, diff)
			}
		}
	}
}

// diffTotals lists the samples on which got and want disagree.
func diffTotals(got, want foldTotals) string {
	var out []string
	for k, v := range want.Counters {
		if got.Counters[k] != v {
			out = append(out, fmt.Sprintf("%s = %d, want %d", k, got.Counters[k], v))
		}
	}
	for k, v := range got.Counters {
		if _, ok := want.Counters[k]; !ok {
			out = append(out, fmt.Sprintf("%s = %d, want absent", k, v))
		}
	}
	for k, v := range want.Histograms {
		if !reflect.DeepEqual(got.Histograms[k], v) {
			out = append(out, fmt.Sprintf("%s buckets = %v, want %v", k, got.Histograms[k], v))
		}
	}
	for k := range got.Histograms {
		if _, ok := want.Histograms[k]; !ok {
			out = append(out, fmt.Sprintf("%s present, want absent", k))
		}
	}
	sort.Strings(out)
	return strings.Join(out, "; ")
}

// TestWorkerRegistriesArePrivate: with several workers every
// replication sees the registry of the worker running it, never the job
// registry, and the batch folds them all into the job registry; a
// sequential batch writes the job registry itself. With Metrics nil no
// registry is built.
func TestWorkerRegistriesArePrivate(t *testing.T) {
	const reps = 12
	for _, workers := range []int{0, 1, 3} {
		for _, job := range []*metrics.Registry{nil, metrics.NewRegistry()} {
			var mu sync.Mutex
			seen := map[*metrics.Registry]int{}
			one := func(o Options, _ uint64, _ *xrand.Source) (int, error) {
				mu.Lock()
				seen[o.Metrics]++
				mu.Unlock()
				o.Metrics.Counter("probe_total", "").Inc()
				return 0, nil
			}
			opt := Options{Workers: workers, Metrics: job}
			if err := runBatch(opt, 0, splitN(xrand.New(1), reps), one, func(int, trialResult[int]) {}); err != nil {
				t.Fatal(err)
			}
			if job == nil {
				if len(seen) != 1 || seen[nil] != reps {
					t.Fatalf("Workers=%d, Metrics nil: replications saw %v", workers, seen)
				}
				continue
			}
			if workers <= 1 {
				if len(seen) != 1 || seen[job] != reps {
					t.Fatalf("Workers=%d: sequential replications saw %v, want the job registry", workers, seen)
				}
			} else if seen[job] != 0 || seen[nil] != 0 || len(seen) > workers {
				t.Fatalf("Workers=%d: replications saw %d registries (job %d, nil %d)",
					workers, len(seen), seen[job], seen[nil])
			}
			if got := job.Counter("probe_total", "").Value(); got != reps {
				t.Fatalf("Workers=%d: folded probe_total = %d, want %d", workers, got, reps)
			}
		}
	}
}
