package metrics

import (
	"math"
	"testing"
)

func TestNilRegistryHandsOutNoOpInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1})
	cv := r.CounterVec("cv", "", "l")
	gv := r.GaugeVec("gv", "", "l")
	r.GaugeFunc("gf", "", func() float64 { return 1 })

	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(0.5)
	cv.With("x").Inc()
	gv.With("x").Set(2)

	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments retained state")
	}
	if r.Snapshot() != nil || r.PrometheusText() != "" {
		t.Fatal("nil registry exposed something")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "hits")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
	if again := r.Counter("hits_total", "hits"); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("depth", "depth")
	g.Set(4)
	g.Add(-1.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %g", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	// le semantics: 1 lands in the le=1 bucket.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 5 || h.Sum() != 106 {
		t.Fatalf("count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("drops_total", "", "reason")
	cv.With("no route").Inc()
	cv.With("no route").Inc()
	cv.With("fabric").Inc()
	if cv.With("no route").Value() != 2 || cv.With("fabric").Value() != 1 {
		t.Fatal("vec children miscounted")
	}

	gv := r.GaugeVec("depth", "", "lc")
	gv.With("0").Set(7)
	if gv.With("0").Value() != 7 {
		t.Fatal("gauge vec child lost value")
	}
}

func TestGaugeFuncKeepsFirstRegistration(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("ratio", "", func() float64 { return 1 })
	r.GaugeFunc("ratio", "", func() float64 { return 2 })
	for _, s := range r.Snapshot() {
		if s.Name == "ratio" {
			if s.Samples[0].Value != 1 {
				t.Fatalf("ratio = %g, want first-registered fn", s.Samples[0].Value)
			}
			return
		}
	}
	t.Fatal("ratio family missing")
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic re-registering x as a gauge")
		}
	}()
	r.Gauge("x", "")
}

func TestWithWrongArityPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("v", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label arity")
		}
	}()
	cv.With("only-one")
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if len(exp) != 4 || exp[0] != 1 || exp[3] != 8 {
		t.Fatalf("ExpBuckets = %v", exp)
	}
	lin := LinearBuckets(0, 0.5, 3)
	if len(lin) != 3 || lin[2] != 1 {
		t.Fatalf("LinearBuckets = %v", lin)
	}
}

func TestGaugeAddIsAtomicOverNaNFreePath(t *testing.T) {
	g := NewRegistry().Gauge("g", "")
	g.Set(1)
	g.Add(math.Pi)
	if got := g.Value(); math.Abs(got-(1+math.Pi)) > 1e-15 {
		t.Fatalf("gauge = %g", got)
	}
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("metrics: LinearBuckets needs width > 0, n ≥ 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

func TestFoldAddsCountersAndKeepsGaugeLevels(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("trials_total", "trials").Add(5)
	dst.Gauge("depth", "").Set(9)
	dst.GaugeFunc("own_ratio", "", func() float64 { return 0.5 })

	for w := 1; w <= 2; w++ {
		src := NewRegistry()
		src.Counter("trials_total", "trials").Add(uint64(10 * w))
		src.CounterVec("drops_total", "", "reason").With("no route").Add(uint64(w))
		src.GaugeVec("queue", "", "lc").With("0").Set(float64(w))
		src.Gauge("depth", "").Set(float64(100 + w))
		h := src.Histogram("lat", "", []float64{1, 2})
		h.Observe(0.5)
		h.Observe(3)
		src.GaugeFunc("ratio", "", func() float64 { return float64(w) / 4 })
		src.GaugeFunc("own_ratio", "", func() float64 { return 7 })
		dst.Fold(src)
	}

	if got := dst.Counter("trials_total", "").Value(); got != 35 {
		t.Fatalf("trials_total = %d, want 35", got)
	}
	if got := dst.CounterVec("drops_total", "", "reason").With("no route").Value(); got != 3 {
		t.Fatalf("drops_total = %d, want 3", got)
	}
	if got := dst.GaugeVec("queue", "", "lc").With("0").Value(); got != 2 {
		t.Fatalf("queue gauge = %g, want the last level 2", got)
	}
	if got := dst.Gauge("depth", "").Value(); got != 102 {
		t.Fatalf("depth = %g, want the last level 102", got)
	}
	h := dst.Histogram("lat", "", []float64{1, 2})
	if h.Count() != 4 || h.Sum() != 7 || h.BucketCount(0) != 2 || h.BucketCount(1) != 0 || h.BucketCount(2) != 2 {
		t.Fatalf("histogram count=%d sum=%g buckets=%d/%d/%d", h.Count(), h.Sum(),
			h.BucketCount(0), h.BucketCount(1), h.BucketCount(2))
	}
	for _, s := range dst.Snapshot() {
		switch s.Name {
		case "ratio":
			if s.Samples[0].Value != 0.5 {
				t.Fatalf("ratio = %g, want the folded level 0.5", s.Samples[0].Value)
			}
		case "own_ratio":
			if s.Samples[0].Value != 0.5 {
				t.Fatalf("own_ratio = %g, want the destination's own function", s.Samples[0].Value)
			}
		case "trials_total":
			if s.Help != "trials" {
				t.Fatalf("help = %q", s.Help)
			}
		}
	}
}

func TestFoldNilAndSelfAreNoOps(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Inc()
	r.Fold(nil)
	r.Fold(r)
	var nilReg *Registry
	nilReg.Fold(r)
	if got := r.Counter("c_total", "").Value(); got != 1 {
		t.Fatalf("c_total = %d, want 1", got)
	}
}

func TestFoldMismatchPanics(t *testing.T) {
	for name, pair := range map[string][2]func(*Registry){
		"kind": {
			func(r *Registry) { r.Counter("x", "") },
			func(r *Registry) { r.Gauge("x", "") },
		},
		"bounds": {
			func(r *Registry) { r.Histogram("h", "", []float64{1, 2}) },
			func(r *Registry) { r.Histogram("h", "", []float64{1, 3}) },
		},
	} {
		t.Run(name, func(t *testing.T) {
			dst, src := NewRegistry(), NewRegistry()
			pair[0](dst)
			pair[1](src)
			defer func() {
				if recover() == nil {
					t.Fatal("expected a panic")
				}
			}()
			dst.Fold(src)
		})
	}
}
