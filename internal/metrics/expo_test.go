package metrics

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with one instrument of every kind and
// deterministic values.
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("demo_events_total", "Events seen.")
	c.Add(42)
	g := r.Gauge("demo_depth", "Current queue depth.")
	g.Set(3.5)
	r.GaugeFunc("demo_ratio", "Computed at exposition time.", func() float64 { return 0.25 })
	h := r.Histogram("demo_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.05, 7} {
		h.Observe(v)
	}
	cv := r.CounterVec("demo_drops_total", "Drops by reason.", "reason")
	cv.With("no route").Add(3)
	cv.With("fabric transfer failed").Inc()
	gv := r.GaugeVec("demo_queue_depth", "Depth per linecard.", "lc")
	gv.With("0").Set(2)
	gv.With("1").Set(0)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestPrometheusTextGolden(t *testing.T) {
	checkGolden(t, "prometheus.golden", []byte(goldenRegistry().PrometheusText()))
}

func TestSnapshotJSONGolden(t *testing.T) {
	b, err := goldenRegistry().SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.golden.json", append(b, '\n'))
}

func TestPrometheusHistogramCumulative(t *testing.T) {
	txt := goldenRegistry().PrometheusText()
	// The +Inf bucket must equal _count; spot-check the rendered lines.
	for _, line := range []string{
		`demo_latency_seconds_bucket{le="0.001"} 1`,
		`demo_latency_seconds_bucket{le="0.01"} 2`,
		`demo_latency_seconds_bucket{le="0.1"} 3`,
		`demo_latency_seconds_bucket{le="+Inf"} 4`,
		`demo_latency_seconds_count 4`,
	} {
		if !containsLine(txt, line) {
			t.Fatalf("missing %q in:\n%s", line, txt)
		}
	}
}

func containsLine(text, line string) bool {
	for len(text) > 0 {
		i := 0
		for i < len(text) && text[i] != '\n' {
			i++
		}
		if text[:i] == line {
			return true
		}
		if i == len(text) {
			break
		}
		text = text[i+1:]
	}
	return false
}

func TestSnapshotIsValidJSON(t *testing.T) {
	b, err := goldenRegistry().SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap []FamilySnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 6 {
		t.Fatalf("families = %d", len(snap))
	}
}

// TestSnapshotJSONNonFinite: a +Inf gauge (a Monte-Carlo relative error
// before the first failure) and other non-finite values encode as the
// Prometheus spellings instead of failing the whole snapshot.
func TestSnapshotJSONNonFinite(t *testing.T) {
	r := NewRegistry()
	r.Gauge("demo_relerr", "Relative error.").Set(math.Inf(1))
	r.GaugeVec("demo_edge", "Edge values.", "v").With("neg").Set(math.Inf(-1))
	r.GaugeFunc("demo_nan", "Undefined.", func() float64 { return math.NaN() })
	r.Histogram("demo_obs", "Observations.", []float64{1}).Observe(math.Inf(1))
	b, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Fatalf("invalid JSON:\n%s", b)
	}
	var snap []struct {
		Name    string `json:"name"`
		Samples []struct {
			Value any `json:"value"`
		} `json:"samples"`
		Histogram *struct {
			Sum any `json:"sum"`
		} `json:"histogram"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]any)
	for _, f := range snap {
		if f.Histogram != nil {
			got[f.Name] = f.Histogram.Sum
		} else {
			got[f.Name] = f.Samples[0].Value
		}
	}
	want := map[string]any{"demo_relerr": "+Inf", "demo_edge": "-Inf", "demo_nan": "NaN", "demo_obs": "+Inf"}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s encoded as %v, want %q", name, got[name], v)
		}
	}
}
