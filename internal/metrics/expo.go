package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file renders a registry in the two exposition formats the tooling
// consumes: the Prometheus text format (for /metrics and --metrics-out
// dumps) and a JSON snapshot (for /metrics.json and programmatic use).
// Families are emitted in lexicographic name order and labeled children
// in sorted label-value order, so output is deterministic and
// golden-testable.

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4). A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, s := range r.Snapshot() {
		if err := s.writePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

// PrometheusText renders the registry as a string.
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	r.WritePrometheus(&b) // strings.Builder never errors
	return b.String()
}

// Sample is one exposed time-series value inside a family.
type Sample struct {
	// LabelValues aligns with the family's LabelNames (empty for
	// unlabeled families).
	LabelValues []string `json:"labels,omitempty"`
	Value       float64  `json:"value"`
}

// HistogramData carries the bucketized state of a histogram family.
type HistogramData struct {
	// Bounds are the bucket upper bounds; Counts[i] is the number of
	// observations ≤ Bounds[i]. Counts has one extra, final entry for
	// the +Inf bucket. Counts are per-bucket (not cumulative).
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// FamilySnapshot is a point-in-time copy of one family.
type FamilySnapshot struct {
	Name       string         `json:"name"`
	Help       string         `json:"help,omitempty"`
	Kind       string         `json:"kind"`
	LabelNames []string       `json:"label_names,omitempty"`
	Samples    []Sample       `json:"samples,omitempty"`
	Histogram  *HistogramData `json:"histogram,omitempty"`
}

// Snapshot copies every family's current state, in name order. Gauge
// functions are evaluated here. A nil registry snapshots empty.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	// Copy child lists under the lock; values are read atomically after.
	type childCopy struct {
		vals []string
		c    *Counter
		g    *Gauge
	}
	kids := make([][]childCopy, len(fams))
	for i, f := range fams {
		if f.children == nil {
			continue
		}
		cs := make([]childCopy, 0, len(f.order))
		for _, key := range f.order {
			ch := f.children[key]
			cs = append(cs, childCopy{vals: ch.labelValues, c: ch.c, g: ch.g})
		}
		sort.Slice(cs, func(a, b int) bool {
			return strings.Join(cs[a].vals, "\x1f") < strings.Join(cs[b].vals, "\x1f")
		})
		kids[i] = cs
	}
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for i, f := range fams {
		s := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String(), LabelNames: f.labelNames}
		switch {
		case f.h != nil:
			hd := &HistogramData{
				Bounds: f.h.Bounds(),
				Count:  f.h.Count(),
				Sum:    f.h.Sum(),
			}
			hd.Counts = make([]uint64, len(hd.Bounds)+1)
			for b := range hd.Counts {
				hd.Counts[b] = f.h.BucketCount(b)
			}
			s.Histogram = hd
		case f.labelNames != nil:
			for _, ch := range kids[i] {
				v := 0.0
				if ch.c != nil {
					v = float64(ch.c.Value())
				} else if ch.g != nil {
					v = ch.g.Value()
				}
				s.Samples = append(s.Samples, Sample{LabelValues: ch.vals, Value: v})
			}
		case f.c != nil:
			s.Samples = []Sample{{Value: float64(f.c.Value())}}
		case f.g != nil:
			s.Samples = []Sample{{Value: f.g.Value()}}
		case f.fn != nil:
			s.Samples = []Sample{{Value: f.fn()}}
		}
		out = append(out, s)
	}
	return out
}

// jsonFloat encodes like a float64, except that the non-finite values
// encoding/json rejects become the strings "+Inf", "-Inf" and "NaN", as
// the Prometheus text format spells them. A gauge that is legitimately
// infinite (a Monte-Carlo relative error before the first failure) must
// not fail the whole snapshot.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	switch v := float64(f); {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	default:
		return json.Marshal(v)
	}
}

// MarshalJSON encodes the value as a jsonFloat.
func (s Sample) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		LabelValues []string  `json:"labels,omitempty"`
		Value       jsonFloat `json:"value"`
	}{s.LabelValues, jsonFloat(s.Value)})
}

// MarshalJSON encodes the bounds and the sum as jsonFloats.
func (h HistogramData) MarshalJSON() ([]byte, error) {
	bounds := make([]jsonFloat, len(h.Bounds))
	for i, b := range h.Bounds {
		bounds[i] = jsonFloat(b)
	}
	return json.Marshal(struct {
		Bounds []jsonFloat `json:"bounds"`
		Counts []uint64    `json:"counts"`
		Count  uint64      `json:"count"`
		Sum    jsonFloat   `json:"sum"`
	}{bounds, h.Counts, h.Count, jsonFloat(h.Sum)})
}

// SnapshotJSON renders the snapshot as indented JSON. Non-finite values
// are written as strings (see jsonFloat).
func (r *Registry) SnapshotJSON() ([]byte, error) {
	snap := r.Snapshot()
	if snap == nil {
		snap = []FamilySnapshot{}
	}
	return json.MarshalIndent(snap, "", "  ")
}

func (s FamilySnapshot) writePrometheus(w io.Writer) error {
	if s.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, escapeHelp(s.Help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
		return err
	}
	if s.Histogram != nil {
		h := s.Histogram
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", s.Name, formatBound(bound), cum); err != nil {
				return err
			}
		}
		cum += h.Counts[len(h.Bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", s.Name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", s.Name, formatValue(h.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", s.Name, h.Count)
		return err
	}
	for _, smp := range s.Samples {
		labels := ""
		if len(smp.LabelValues) > 0 {
			pairs := make([]string, len(smp.LabelValues))
			for i, v := range smp.LabelValues {
				pairs[i] = fmt.Sprintf("%s=%q", s.LabelNames[i], v)
			}
			labels = "{" + strings.Join(pairs, ",") + "}"
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, labels, formatValue(smp.Value)); err != nil {
			return err
		}
	}
	return nil
}

// formatValue renders a float the way Prometheus expects: integral
// values without an exponent or trailing zeros.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatBound renders a bucket bound for the le label.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
