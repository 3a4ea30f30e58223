package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFile checks BENCHMARK.json against its own limits and
// against the harness's tables.
func TestBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[kind+n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[kind+n] = true
	}

	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2–8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1–16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1–128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1–60", bf.RunSeconds)
	}
	for _, p := range bf.Paths {
		if st, err := os.Stat(filepath.Join("..", p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repo", p)
		}
	}
	for _, arg := range bf.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %+v", i, w, workloads[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if !slices.Equal(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end\n%+v\nwant the harness's\n%+v", bf.EndToEnd, endToEnd)
	}
	maxBound := 0.0
	for _, m := range bf.EndToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	i := slices.IndexFunc(bf.EndToEnd, func(m metric) bool { return m.Name == "setup_s" })
	if i < 0 || bf.EndToEnd[i].Unit != "s" || bf.EndToEnd[i].Better != "lower" || bf.EndToEnd[i].Bound != maxBound {
		t.Errorf("setup_s must be declared in s, lower is better, with the largest bound")
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	wl := map[string]bool{}
	for _, w := range workloads {
		wl[w.Name] = true
	}
	for i, m := range bf.PerLayer {
		name("metric", m.Name)
		h := perLayer[i]
		if m.Name != h.Name || m.Unit != h.Unit || m.Better != h.Better || h.Bound != 0 {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, m, h.metric)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if len(h.Moves) == 0 {
			t.Errorf("%s names no end-to-end metric it should move", m.Name)
		}
		for _, mv := range h.Moves {
			metric, workload, ok := strings.Cut(mv, "@")
			if !ok || !e2e[metric] || !wl[workload] {
				t.Errorf("%s moves %q: want an end-to-end metric @ a workload", m.Name, mv)
			}
		}
	}
}

// TestResultNames checks that a pass's report names exactly the
// declared end-to-end metrics, and that every per-layer figure the
// harness derives outside the layer phase is declared.
func TestResultNames(t *testing.T) {
	now := time.Now()
	tm := &template{Specs: []jobSpec{stagedSpec(1, 0)}, Bodies: [][]byte{[]byte(`{"trials":8}`)}}
	for _, w := range workloads {
		p := &pass{Workload: w.Name, tmpl: tm, Phases: map[string]float64{}, Delta: map[string]float64{},
			Setup: []float64{0.02}, Latency: []time.Duration{time.Millisecond}, PeakRSSMB: 16, Through: 100,
			Records: []jobRecord{{Send: now, Submitted: now, Terminal: now, Result: [2]time.Time{now, now}}}}
		r, err := p.result()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, m := range endToEnd {
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("%s: report lacks %s", w.Name, m.Name)
			}
		}
		declaredLayer := map[string]bool{}
		for _, m := range perLayer {
			declaredLayer[m.Name] = true
		}
		for name := range layerValues(p) {
			if !declaredLayer[name] {
				t.Errorf("%s: per-layer figure %s is not declared", w.Name, name)
			}
		}
	}
}

// TestVerdict pins compare's rule.
func TestVerdict(t *testing.T) {
	lower := metric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metric{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		m    metric
		a, b []float64
		want string
	}{
		{lower, []float64{1}, []float64{1.05}, "within"},
		{lower, []float64{1}, []float64{1.2}, "worse"},
		{lower, []float64{1}, []float64{0.8}, "better"},
		{higher, []float64{100}, []float64{80}, "worse"},
		{higher, []float64{100}, []float64{120}, "better"},
		{lower, []float64{1, 1, 2, 2}, []float64{1.6}, "unresolved"},
		{lower, []float64{1, 1, 2, 2}, []float64{0.5, 0.6}, "better"},
		{lower, nil, []float64{1}, "unresolved"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
}
