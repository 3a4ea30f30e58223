package invariant

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestNilCheckerIsHarmless: the disabled state must be a no-op on every
// method, matching the nil metrics/trace discipline.
func TestNilCheckerIsHarmless(t *testing.T) {
	var c *Checker
	c.SetClock(func() float64 { return 1 })
	c.SetTrace(trace.New(4))
	c.Instrument(metrics.NewRegistry())
	c.Register("x", func() string { return "boom" })
	c.Sweep()
	c.Report("x", "boom")
	if c.Violations() != nil || c.Total() != 0 || c.Err() != nil {
		t.Fatal("nil checker must observe nothing")
	}
}

func TestSweepAndReport(t *testing.T) {
	c := New()
	now := 0.0
	c.SetClock(func() float64 { return now })
	healthy := true
	c.Register("gate", func() string {
		if healthy {
			return ""
		}
		return "gate open"
	})
	c.Sweep()
	if c.Total() != 0 || c.Err() != nil {
		t.Fatalf("healthy sweep raised %d violations", c.Total())
	}
	healthy = false
	now = 42
	c.Sweep()
	c.Sweep()
	if c.Total() != 2 {
		t.Fatalf("Total = %d, want 2", c.Total())
	}
	v := c.Violations()
	if len(v) != 2 || v[0].Check != "gate" || v[0].At != 42 || v[0].Detail != "gate open" {
		t.Fatalf("violations = %v", v)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "gate open") {
		t.Fatalf("Err = %v", err)
	}
}

// TestRetentionBound: a hot broken invariant keeps counting but stops
// retaining.
func TestRetentionBound(t *testing.T) {
	c := New()
	for i := 0; i < DefaultMaxViolations+10; i++ {
		c.Report("hot", fmt.Sprintf("v%d", i))
	}
	if c.Total() != uint64(DefaultMaxViolations+10) {
		t.Fatalf("Total = %d", c.Total())
	}
	if len(c.Violations()) != DefaultMaxViolations {
		t.Fatalf("retained %d, want %d", len(c.Violations()), DefaultMaxViolations)
	}
}

// TestMetricsAndTraceSurface: violations flow into the registry and the
// trace ring.
func TestMetricsAndTraceSurface(t *testing.T) {
	c := New()
	reg := metrics.NewRegistry()
	tr := trace.New(16)
	c.Instrument(reg)
	c.SetTrace(tr)
	c.SetClock(func() float64 { return 7 })
	c.Register("a", func() string { return "broken a" })
	c.Sweep()
	c.Report("b", "broken b")

	if got := reg.CounterVec("invariant_violations_total", "", "check").With("a").Value(); got != 1 {
		t.Fatalf("violations{a} = %v", got)
	}
	if got := reg.CounterVec("invariant_violations_total", "", "check").With("b").Value(); got != 1 {
		t.Fatalf("violations{b} = %v", got)
	}
	if tr.Count(trace.Violation) != 2 {
		t.Fatalf("trace violations = %d", tr.Count(trace.Violation))
	}
	evs := tr.Events()
	if evs[0].Kind != trace.Violation || evs[0].At != 7 || evs[0].Detail != "a" || evs[0].Reason != "broken a" {
		t.Fatalf("trace event = %+v", evs[0])
	}
}

func TestRegisterPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Register("", nil)
}

// TestSink: every violation — including those past the retention bound —
// reaches an attached sink, and a nil sink detaches.
func TestSink(t *testing.T) {
	c := New()
	c.max = 2
	var got []Violation
	c.SetSink(func(v Violation) { got = append(got, v) })
	for i := 0; i < 5; i++ {
		c.Report("chk", fmt.Sprintf("v%d", i))
	}
	if len(got) != 5 {
		t.Fatalf("sink saw %d violations, want 5 (retention bound must not gate it)", len(got))
	}
	if got[4].Detail != "v4" || got[4].Check != "chk" {
		t.Fatalf("sink payload wrong: %+v", got[4])
	}
	c.SetSink(nil)
	c.Report("chk", "after detach")
	if len(got) != 5 {
		t.Fatal("detached sink still invoked")
	}
	// Nil receiver: attach is a no-op.
	var nc *Checker
	nc.SetSink(func(Violation) { t.Fatal("nil checker sink fired") })
	nc.Report("x", "y")
}
