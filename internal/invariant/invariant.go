// Package invariant is a runtime invariant wall for the router model:
// named predicate checks registered by the components that own the
// state, swept from the simulation kernel's after-step hook or invoked
// directly at hot-path funnel points. A failed check produces a
// structured Violation — never a panic — so campaigns and soaks can
// keep running while the wall records exactly what broke, when.
//
// The package follows the repo's nil-object discipline: every method is
// safe on a nil *Checker and costs a single branch, so components can
// thread a checker through unconditionally and production runs that
// never attach one pay nothing (mirroring the nil metrics.Registry
// pattern).
package invariant

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Violation is one recorded invariant failure. Violations are values,
// not panics: the model keeps running and the caller decides whether a
// non-empty violation list fails the run.
type Violation struct {
	// At is the simulation time of detection.
	At float64 `json:"at"`
	// Check is the registered check name ("lp-unique", ...).
	Check string `json:"check"`
	// Detail describes what was observed vs. expected.
	Detail string `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("t=%g %s: %s", v.At, v.Check, v.Detail)
}

// CheckFunc inspects model state and returns a human-readable defect
// description, or "" when the invariant holds. Check functions must not
// mutate the model.
type CheckFunc func() string

type check struct {
	name string
	fn   CheckFunc
}

// DefaultMaxViolations bounds the retained violation list; later
// violations still count in metrics but are dropped from the slice so a
// hot broken invariant cannot consume unbounded memory.
const DefaultMaxViolations = 256

// Checker holds registered checks and the violations they have raised.
// The zero value is unusable; construct with New. A nil *Checker is a
// no-op on every method.
type Checker struct {
	checks []check
	viols  []Violation
	max    int
	total  uint64
	clock  func() float64
	tr     *trace.Recorder
	sink   func(Violation)

	mChecks *metrics.Counter
	mViols  *metrics.CounterVec
}

// New returns an empty checker retaining at most DefaultMaxViolations
// violations.
func New() *Checker {
	return &Checker{max: DefaultMaxViolations}
}

// SetClock attaches a simulation-time source used to stamp violations.
// Safe on a nil receiver; nil detaches.
func (c *Checker) SetClock(now func() float64) {
	if c != nil {
		c.clock = now
	}
}

// SetTrace mirrors every violation into tr as a trace.Violation event
// (LC/Peer unset), interleaving invariant failures with the fault and
// coverage timeline. Safe on a nil receiver; a nil recorder detaches.
func (c *Checker) SetTrace(tr *trace.Recorder) {
	if c != nil {
		c.tr = tr
	}
}

// SetSink attaches a violation consumer invoked synchronously on every
// violation raised — including those past the retention bound — so a
// telemetry plane can stream the wall's state live instead of polling
// the retained list. The sink runs on the violating goroutine and must
// be cheap and non-blocking. Safe on a nil receiver; nil detaches.
func (c *Checker) SetSink(fn func(Violation)) {
	if c != nil {
		c.sink = fn
	}
}

// Instrument resolves the checker's metrics against reg:
//
//	invariant_checks_total            — individual check evaluations;
//	invariant_violations_total{check} — violations raised, per check.
//
// A nil registry or nil receiver is a no-op.
func (c *Checker) Instrument(reg *metrics.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.mChecks = reg.Counter("invariant_checks_total", "Invariant check evaluations.")
	c.mViols = reg.CounterVec("invariant_violations_total", "Invariant violations raised.", "check")
}

// Register adds a named check to the sweep set. Safe on a nil receiver
// (the registration is silently dropped, matching the disabled state).
func (c *Checker) Register(name string, fn CheckFunc) {
	if c == nil {
		return
	}
	if name == "" || fn == nil {
		panic("invariant: Register needs a name and a func")
	}
	c.checks = append(c.checks, check{name, fn})
}

// Sweep evaluates every registered check once. It is the kernel
// after-step entry point. Safe on a nil receiver.
func (c *Checker) Sweep() {
	if c == nil {
		return
	}
	for _, ck := range c.checks {
		c.mChecks.Inc()
		if detail := ck.fn(); detail != "" {
			c.report(ck.name, detail)
		}
	}
}

// Report records a violation directly, for call sites that detect the
// defect themselves. Safe on a nil receiver.
func (c *Checker) Report(name, detail string) {
	if c == nil {
		return
	}
	c.report(name, detail)
}

func (c *Checker) report(name, detail string) {
	c.total++
	c.mViols.With(name).Inc()
	at := 0.0
	if c.clock != nil {
		at = c.clock()
	}
	if c.tr != nil {
		c.tr.Record(trace.Event{At: at, Kind: trace.Violation, LC: -1, Peer: -1, Detail: name, Reason: detail})
	}
	v := Violation{At: at, Check: name, Detail: detail}
	if len(c.viols) < c.max {
		c.viols = append(c.viols, v)
	}
	if c.sink != nil {
		c.sink(v)
	}
}

// Violations returns the retained violations in detection order. Safe
// on a nil receiver (returns nil).
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	out := make([]Violation, len(c.viols))
	copy(out, c.viols)
	return out
}

// Total returns the number of violations ever raised, including any
// dropped past the retention bound. Safe on a nil receiver.
func (c *Checker) Total() uint64 {
	if c == nil {
		return 0
	}
	return c.total
}

// Err returns nil when no violation was raised, else an error
// summarising the first violation and the total count — a convenient
// single-call gate for tests and campaign verdicts.
func (c *Checker) Err() error {
	if c == nil || c.total == 0 {
		return nil
	}
	return fmt.Errorf("invariant: %d violation(s), first: %s", c.total, c.viols[0])
}
