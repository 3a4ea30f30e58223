package metrics

import "testing"

func TestDeltaCollect(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("widgets_total", "w")
	g := reg.Gauge("depth", "d")
	v := reg.CounterVec("ops_total", "o", "kind")
	h := reg.Histogram("latency_seconds", "l", []float64{1, 10})

	c.Add(5)
	g.Set(2.5)
	v.With("read").Add(3)
	h.Observe(0.5)
	h.Observe(4)

	d := NewDelta(reg)
	counters, gauges := d.Collect()
	if counters["widgets_total"] != 5 {
		t.Fatalf("first collect widgets = %g, want 5 (lifetime baseline)", counters["widgets_total"])
	}
	if counters[`ops_total{kind="read"}`] != 3 {
		t.Fatalf("labeled counter missing: %v", counters)
	}
	if counters["latency_seconds_count"] != 2 || counters["latency_seconds_sum"] != 4.5 {
		t.Fatalf("histogram delta wrong: %v", counters)
	}
	if gauges["depth"] != 2.5 {
		t.Fatalf("gauge level wrong: %v", gauges)
	}

	// Second window: only movement shows up.
	c.Add(2)
	v.With("write").Inc()
	g.Set(1)
	counters, gauges = d.Collect()
	if counters["widgets_total"] != 2 {
		t.Fatalf("second collect widgets = %g, want 2", counters["widgets_total"])
	}
	if _, ok := counters[`ops_total{kind="read"}`]; ok {
		t.Fatal("unmoved counter must be omitted")
	}
	if counters[`ops_total{kind="write"}`] != 1 {
		t.Fatalf("new labeled child missing: %v", counters)
	}
	if gauges["depth"] != 1 {
		t.Fatalf("gauge must report current level, got %v", gauges)
	}
}

func TestDeltaNilSafe(t *testing.T) {
	var d *Delta
	c, g := d.Collect()
	if len(c) != 0 || len(g) != 0 {
		t.Fatal("nil Delta must collect nothing")
	}
	d2 := NewDelta(nil)
	c, g = d2.Collect()
	if len(c) != 0 || len(g) != 0 {
		t.Fatal("Delta over nil registry must collect nothing")
	}
}

func TestLintNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("good_total", "")
	reg.Gauge("queue_depth", "")
	reg.Histogram("run_seconds", "", []float64{1})
	if p := reg.LintNames(); len(p) != 0 {
		t.Fatalf("clean registry flagged: %v", p)
	}

	bad := NewRegistry()
	bad.Counter("widgets", "")         // counter without _total
	bad.Gauge("depth_total", "")       // gauge with _total
	bad.Counter("ops_total_bytes", "") // _total not final
	bad.Gauge("Bad-Name", "")          // charset
	bad.Gauge("latency_sum", "")       // reserved suffix
	p := bad.LintNames()
	if len(p) < 5 {
		t.Fatalf("lint missed defects: %v", p)
	}
}

func TestLintNamesNilRegistry(t *testing.T) {
	var r *Registry
	if p := r.LintNames(); p != nil {
		t.Fatalf("nil registry lint: %v", p)
	}
}
