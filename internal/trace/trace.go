// Package trace is a lightweight structured event log for the router
// model: a bounded ring buffer of typed events (faults, repairs, coverage
// changes, drops) that operators and tests can query or dump. It costs
// nothing when disabled (the Recorder pointer is nil).
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies an event.
type Kind uint8

// The event kinds the router emits.
const (
	Fault Kind = iota
	Repair
	CoverageUp
	CoverageDown
	BusDown
	BusUp
	Drop
	Violation
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fault:
		return "fault"
	case Repair:
		return "repair"
	case CoverageUp:
		return "coverage-up"
	case CoverageDown:
		return "coverage-down"
	case BusDown:
		return "bus-down"
	case BusUp:
		return "bus-up"
	case Drop:
		return "drop"
	case Violation:
		return "violation"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	At   float64
	Kind Kind
	// LC is the primary linecard involved (-1 when not LC-scoped).
	LC int
	// Peer is the secondary LC (covering peer), -1 when absent.
	Peer int
	// Detail is a short human-readable tag (component name, coverage
	// context).
	Detail string
	// Reason is the drop cause for Kind == Drop ("no route",
	// "fabric transfer failed", ...); empty otherwise.
	Reason string
	// Seq is the recorder-assigned sequence number, monotonically
	// increasing across the recorder's lifetime (including evicted
	// events). It breaks ties between simultaneous events, keeping
	// Dump order stable.
	Seq uint64
}

// String implements fmt.Stringer.
func (e Event) String() string {
	s := fmt.Sprintf("t=%-12g %-13s", e.At, e.Kind)
	if e.LC >= 0 {
		s += fmt.Sprintf(" LC%d", e.LC)
	}
	if e.Peer >= 0 {
		s += fmt.Sprintf(" peer=LC%d", e.Peer)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	if e.Reason != "" {
		s += " reason=" + e.Reason
	}
	return s
}

// Recorder is a bounded ring buffer of events. The zero value is unusable;
// construct with New. A nil *Recorder is safe to record into (no-op), so
// callers can leave tracing off without branching.
type Recorder struct {
	buf     []Event
	next    int
	wrapped bool
	seq     uint64
	counts  [numKinds]uint64
	clock   func() float64
}

// New returns a recorder holding the last capacity events.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

// SetClock attaches a simulation-time source. Events recorded with a
// zero At are stamped from the clock, so call sites cannot produce
// zero-time events once the owning model wires its kernel in. Safe on a
// nil receiver; nil detaches the clock.
func (r *Recorder) SetClock(now func() float64) {
	if r != nil {
		r.clock = now
	}
}

// Record appends an event; the oldest event is evicted when full. Safe on
// a nil receiver. The event is stamped with the next sequence number,
// and with the clock time when At is zero and a clock is attached.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.At == 0 && r.clock != nil {
		e.At = r.clock()
	}
	e.Seq = r.seq
	r.seq++
	if int(e.Kind) < len(r.counts) {
		r.counts[e.Kind]++
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
	r.wrapped = true
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Count returns the total number of events of the kind ever recorded
// (including evicted ones).
func (r *Recorder) Count(k Kind) uint64 {
	if r == nil || int(k) >= len(r.counts) {
		return 0
	}
	return r.counts[k]
}

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	if r.wrapped {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Dump renders the retained events one per line, ordered by timestamp
// with recording order (Seq) breaking ties — a stable order even when
// delayed callbacks record out of time order.
func (r *Recorder) Dump() string {
	evs := r.Events()
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		return evs[i].Seq < evs[j].Seq
	})
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
