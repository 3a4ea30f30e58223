// Package metrics is a zero-dependency, allocation-light metrics
// registry for the router model and its tooling: counters, gauges,
// fixed-bucket histograms, and labeled counter families, with a
// Prometheus text exposition and a JSON snapshot.
//
// The package follows the same discipline as trace.Recorder: everything
// is safe on a nil receiver and costs nothing when disabled. A component
// resolves its instruments once (holding *Counter / *Gauge pointers) and
// bumps them unconditionally on the hot path; when no registry is
// attached the pointers are nil and each bump is a single predictable
// branch. All instrument operations are atomic, so a registry may be
// read by an exposition goroutine while its owner writes it, and Fold
// joins registries that workers filled on their own.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family for exposition.
type Kind uint8

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer using the Prometheus TYPE keywords.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64. The zero value is ready to use; a
// nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (atomically, via CAS).
func (g *Gauge) Add(delta float64) {
	if g != nil {
		addFloat(&g.bits, delta)
	}
}

// addFloat adds delta to the float64 whose bits a holds, by CAS.
func addFloat(a *atomic.Uint64, delta float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets given by ascending
// upper bounds (a final +Inf bucket is implicit), mirroring the
// fixed-bin discipline of internal/stats but with atomic cells. A nil
// *Histogram is a no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the configured upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCount returns the count of bucket i (0 ≤ i ≤ len(Bounds()); the
// last index is the +Inf bucket).
func (h *Histogram) BucketCount(i int) uint64 {
	if h == nil {
		return 0
	}
	return h.counts[i].Load()
}

// ExpBuckets returns n upper bounds starting at start, each factor times
// the previous — the usual latency/backoff bucket layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// child is one labeled instrument inside a family.
type child struct {
	labelValues []string
	c           *Counter
	g           *Gauge
}

// family is one named metric with its help text, kind, and either a
// single unlabeled instrument or a set of labeled children.
type family struct {
	name, help string
	kind       Kind
	labelNames []string // nil for unlabeled families

	c  *Counter
	g  *Gauge
	h  *Histogram
	fn func() float64 // gauge-func; read at exposition time

	children map[string]*child
	order    []string // child keys in first-seen order
}

// childLocked returns the child for labelValues, creating it on first
// use: a counter in a counter family, a gauge in a gauge family. Caller
// holds the registry lock.
func (f *family) childLocked(labelValues []string) *child {
	key := strings.Join(labelValues, "\x1f")
	ch, ok := f.children[key]
	if !ok {
		vals := make([]string, len(labelValues))
		copy(vals, labelValues)
		ch = &child{labelValues: vals}
		if f.kind == KindGauge {
			ch.g = &Gauge{}
		} else {
			ch.c = &Counter{}
		}
		f.children[key] = ch
		f.order = append(f.order, key)
	}
	return ch
}

// Registry holds metric families. The zero value is not usable;
// construct with NewRegistry. A nil *Registry hands out nil instruments,
// so a component instrumented against a nil registry costs (almost)
// nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family, creating it when absent. It panics when the
// name is already registered with a different kind or label set — always
// a programming error.
func (r *Registry) lookup(name, help string, kind Kind, labels []string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, labelNames: labels}
		if labels != nil {
			f.children = make(map[string]*child)
		}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
		return f
	}
	if f.kind != kind || len(f.labelNames) != len(labels) {
		panic(fmt.Sprintf("metrics: %q re-registered as %v with %d labels (was %v with %d)",
			name, kind, len(labels), f.kind, len(f.labelNames)))
	}
	return f
}

// Counter returns the counter named name, registering it on first use.
// On a nil registry it returns nil (a no-op counter).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, KindCounter, nil)
	if f.c == nil {
		f.c = &Counter{}
	}
	return f.c
}

// Gauge returns the gauge named name, registering it on first use. On a
// nil registry it returns nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, KindGauge, nil)
	if f.g == nil {
		f.g = &Gauge{}
	}
	return f.g
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time. Re-registering the same name keeps the first
// function, so instrumenting a fresh component per Monte-Carlo
// replication against a shared registry is idempotent. fn must be safe
// to call from the exposition goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, KindGauge, nil)
	if f.fn == nil && f.g == nil {
		f.fn = fn
	}
}

// Histogram returns the histogram named name with the given upper
// bounds, registering it on first use. On a nil registry it returns nil.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, KindHistogram, nil)
	if f.h == nil {
		f.h = newHistogram(bounds)
	}
	return f.h
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	r *Registry
	f *family
}

// CounterVec returns the labeled counter family named name. On a nil
// registry it returns nil (With then returns a nil, no-op counter).
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	if len(labelNames) == 0 {
		panic("metrics: CounterVec needs at least one label name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, KindCounter, labelNames)
	return &CounterVec{r: r, f: f}
}

// With returns the counter for the given label values (one per label
// name), creating it on first use. Resolve once and cache the result on
// hot paths; With itself takes the registry lock.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	if len(labelValues) != len(v.f.labelNames) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d",
			v.f.name, len(v.f.labelNames), len(labelValues)))
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.childLocked(labelValues).c
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct {
	r *Registry
	f *family
}

// GaugeVec returns the labeled gauge family named name. On a nil
// registry it returns nil.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	if len(labelNames) == 0 {
		panic("metrics: GaugeVec needs at least one label name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, KindGauge, labelNames)
	return &GaugeVec{r: r, f: f}
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	if len(labelValues) != len(v.f.labelNames) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d",
			v.f.name, len(v.f.labelNames), len(labelValues)))
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.childLocked(labelValues).g
}

// Fold adds src into r: counters and histogram cells add, and gauges
// take src's level (a gauge function folds as the value it reads now; a
// gauge function r already holds keeps its own). Families r lacks are
// registered with src's help text, label names and bucket bounds. It
// panics when a family exists in both with a different kind, label set
// or bucket layout — always a programming error.
//
// Fold is how instrumentation stays local to a worker: a Monte-Carlo
// worker writes a registry no other goroutine touches, and the batch
// scheduler folds it into the job's registry once per batch. Folding a nil
// registry, or a registry into itself, does nothing.
func (r *Registry) Fold(src *Registry) {
	if r == nil || src == nil || r == src {
		return
	}
	type childCopy struct {
		vals []string
		c    *Counter
		g    *Gauge
	}
	src.mu.Lock()
	fams := make([]*family, len(src.names))
	kids := make([][]childCopy, len(src.names))
	for i, n := range src.names {
		f := src.families[n]
		fams[i] = f
		for _, key := range f.order {
			ch := f.children[key]
			kids[i] = append(kids[i], childCopy{ch.labelValues, ch.c, ch.g})
		}
	}
	src.mu.Unlock()
	// Gauge functions run outside both locks, as in Snapshot.
	levels := make([]float64, len(fams))
	for i, f := range fams {
		if f.fn != nil {
			levels[i] = f.fn()
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	for i, f := range fams {
		d := r.lookup(f.name, f.help, f.kind, f.labelNames)
		switch {
		case f.labelNames != nil:
			for _, ch := range kids[i] {
				dc := d.childLocked(ch.vals)
				if ch.c != nil {
					dc.c.Add(ch.c.Value())
				} else {
					dc.g.Set(ch.g.Value())
				}
			}
		case f.h != nil:
			if d.h == nil {
				d.h = newHistogram(f.h.bounds)
			}
			d.h.fold(f.h)
		case f.c != nil:
			if d.c == nil {
				d.c = &Counter{}
			}
			d.c.Add(f.c.Value())
		case f.g != nil || f.fn != nil:
			if d.fn != nil {
				continue
			}
			if d.g == nil {
				d.g = &Gauge{}
			}
			if f.g != nil {
				d.g.Set(f.g.Value())
			} else {
				d.g.Set(levels[i])
			}
		}
	}
}

// fold adds src's cells, count and sum into h.
func (h *Histogram) fold(src *Histogram) {
	if !slices.Equal(h.bounds, src.bounds) {
		panic("metrics: histogram folded across different bucket bounds")
	}
	for i := range h.counts {
		h.counts[i].Add(src.counts[i].Load())
	}
	h.count.Add(src.count.Load())
	addFloat(&h.sum, src.Sum())
}
