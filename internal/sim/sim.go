// Package sim is a minimal discrete-event simulation kernel: a simulation
// clock, a binary-heap future event list (see Heap) with stable FIFO
// ordering among same-time events, and cancellable timers. The router,
// linecard, EIB, and fabric models are all built on it.
//
// The kernel owns its Event records and recycles them through a free list,
// so the steady-state schedule/fire cycle allocates nothing. Callers never
// hold a *Event; Schedule returns a Timer, a generation-checked value handle
// that stays safe to Cancel after the event has fired and its record been
// reused.
package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
)

// Time is simulation time. The unit is chosen by the model (the DRA models
// use hours for dependability runs and microseconds for packet runs; the
// kernel is unit-agnostic).
type Time float64

// End is a sentinel for "never".
const End Time = Time(math.MaxFloat64)

// Event is a scheduled callback record. Events are owned and recycled by
// the kernel; model code refers to them only through Timer handles.
type Event struct {
	at  Time
	seq uint64
	fn  func()
	// pos is the event's heap index, -1 while unqueued. Maintained by
	// Heap.
	pos int32
	// gen is bumped each time the record is recycled; a Timer carrying a
	// stale generation is inert.
	gen uint32
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// inert: Active reports false and Kernel.Cancel is a no-op. Timers are
// values — copy them freely, compare against the zero value to test "is a
// timer set".
type Timer struct {
	e   *Event
	gen uint32
	at  Time
}

// At returns the time the timer was scheduled for. It stays valid after
// the event fires or is cancelled.
func (t Timer) At() Time { return t.at }

// Active reports whether the event is still pending: not yet fired, not
// cancelled. During the event's own callback it already reports false.
func (t Timer) Active() bool {
	return t.e != nil && t.e.gen == t.gen && t.e.pos >= 0
}

// Kernel owns the clock and the future event list. It is not safe for
// concurrent use: a simulation is a single logical thread of control, which
// keeps runs deterministic and reproducible.
type Kernel struct {
	now Time
	q   Heap
	seq uint64
	// free is the recycled-event list. The kernel is single-threaded, so a
	// plain slice beats sync.Pool: no per-P caches, no GC-cycle eviction.
	free []*Event
	// Processed counts executed (non-cancelled) events, for tests and
	// runaway detection.
	Processed uint64

	// dirty is set between RescheduleLazy and Commit: queue invariants are
	// suspended and every other queue operation panics.
	dirty bool

	// afterStep, when set, runs after every executed event. It is the
	// attachment point for runtime invariant checking: the hook sees the
	// model in its post-event (quiescent) state. Nil costs one branch.
	afterStep func()

	// Instrumentation, resolved by Instrument; nil when the kernel is
	// not observed, in which case each hook is one predictable branch.
	mScheduled *metrics.Counter
	mFired     *metrics.Counter
	mCancelled *metrics.Counter
	mHeapDepth *metrics.Gauge
	mSimNow    *metrics.Gauge
}

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel { return &Kernel{} }

// Instrument resolves the kernel's metrics against reg:
//
//	sim_events_scheduled_total / sim_events_fired_total /
//	sim_events_cancelled_total — future-event-list traffic;
//	sim_heap_depth             — pending events (updated on every
//	                             schedule/fire/cancel, so exposition
//	                             never reads kernel internals);
//	sim_now                    — the simulation clock;
//	sim_wall_ratio             — simulated time advanced per wall-clock
//	                             second since instrumentation.
//
// A nil registry detaches nothing and costs nothing. Repeated calls
// (e.g. one kernel per Monte-Carlo replication sharing one registry)
// accumulate into the same family.
func (k *Kernel) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	k.mScheduled = reg.Counter("sim_events_scheduled_total", "Events pushed onto the future event list.")
	k.mFired = reg.Counter("sim_events_fired_total", "Events executed by the kernel.")
	k.mCancelled = reg.Counter("sim_events_cancelled_total", "Pending events cancelled before firing.")
	k.mHeapDepth = reg.Gauge("sim_heap_depth", "Events currently pending in the future event list.")
	k.mSimNow = reg.Gauge("sim_now", "Current simulation time in model units.")
	wallStart := time.Now()
	simStart := k.now
	simNow := k.mSimNow
	reg.GaugeFunc("sim_wall_ratio", "Simulated time units advanced per wall-clock second.", func() float64 {
		wall := time.Since(wallStart).Seconds()
		if wall <= 0 {
			return 0
		}
		return (simNow.Value() - float64(simStart)) / wall
	})
	k.mSimNow.Set(float64(k.now))
	k.mHeapDepth.Set(float64(k.q.Len()))
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// SetAfterStep installs fn to run after every executed event (nil
// removes it). The hook must not schedule into the past or mutate the
// model; it is intended for observation — invariant sweeps, progress
// probes. Only one hook is held; callers that need several should
// compose them before installing.
func (k *Kernel) SetAfterStep(fn func()) { k.afterStep = fn }

// alloc takes an event record from the free list or the heap.
func (k *Kernel) alloc() *Event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &Event{pos: -1}
}

// recycle returns a fired or cancelled event record to the free list,
// invalidating outstanding Timers via the generation bump.
func (k *Kernel) recycle(e *Event) {
	e.fn = nil
	e.pos = -1
	e.gen++
	k.free = append(k.free, e)
}

// Schedule runs fn at absolute time at. Scheduling in the past panics — it
// is always a model bug.
func (k *Kernel) Schedule(at Time, fn func()) Timer {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	if k.dirty {
		panic("sim: queue operation during uncommitted RescheduleLazy run")
	}
	e := k.alloc()
	e.at = at
	e.seq = k.seq
	e.fn = fn
	k.seq++
	k.q.Push(e)
	if k.mScheduled != nil {
		k.mScheduled.Inc()
		k.mHeapDepth.Set(float64(k.q.Len()))
	}
	return Timer{e: e, gen: e.gen, at: at}
}

// RescheduleLazy moves a still-pending event to a new time, keeping its
// callback, without repositioning it in the queue: no record churn, no
// new closure. After a run of lazy reschedules the caller MUST call
// Commit before any other kernel operation — the queue's ordering
// invariants are suspended in between, and every other queue operation
// panics until Commit runs. Rescheduling n events this way costs one
// O(n) rebuild, which is what a whole-population retarget (the fault
// injector's busy-period biasing) wants. The timer must be Active and at
// must not be in the past; the returned Timer supersedes t (which stays
// valid — both refer to the same pending event).
func (k *Kernel) RescheduleLazy(t Timer, at Time) Timer {
	if t.e == nil || t.e.gen != t.gen || t.e.pos < 0 {
		panic("sim: RescheduleLazy of inactive timer")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: rescheduling at %v before now %v", at, k.now))
	}
	e := t.e
	e.at = at
	e.seq = k.seq
	k.seq++
	k.dirty = true
	if k.mScheduled != nil {
		k.mCancelled.Inc()
		k.mScheduled.Inc()
	}
	return Timer{e: e, gen: e.gen, at: at}
}

// Commit restores queue invariants after a run of RescheduleLazy calls.
// Calling it with nothing pending to commit is a cheap no-op.
func (k *Kernel) Commit() {
	if !k.dirty {
		return
	}
	k.q.Rebuild()
	k.dirty = false
}

// After runs fn after a delay from now. Negative delays panic.
func (k *Kernel) After(delay Time, fn func()) Timer {
	if delay < 0 {
		panic("sim: negative delay")
	}
	return k.Schedule(k.now+delay, fn)
}

// Cancel removes a pending event. Cancelling an already-fired,
// already-cancelled, or zero Timer is a no-op, even if the underlying
// record has since been recycled for another event.
func (k *Kernel) Cancel(t Timer) {
	if t.e == nil || t.e.gen != t.gen {
		return
	}
	if k.dirty {
		panic("sim: queue operation during uncommitted RescheduleLazy run")
	}
	if !k.q.Remove(t.e) {
		return
	}
	k.recycle(t.e)
	if k.mCancelled != nil {
		k.mCancelled.Inc()
		k.mHeapDepth.Set(float64(k.q.Len()))
	}
}

// Pending returns the number of events still queued.
func (k *Kernel) Pending() int { return k.q.Len() }

// Step executes the next event, advancing the clock. It reports whether an
// event was executed.
func (k *Kernel) Step() bool {
	if k.dirty {
		panic("sim: queue operation during uncommitted RescheduleLazy run")
	}
	e := k.q.Pop()
	if e == nil {
		return false
	}
	k.now = e.at
	k.Processed++
	if k.mFired != nil {
		k.mFired.Inc()
		k.mSimNow.Set(float64(k.now))
		k.mHeapDepth.Set(float64(k.q.Len()))
	}
	e.fn()
	// Recycled only after fn returns: a handler cancelling its own timer
	// sees pos == -1 and no-ops rather than freeing the record mid-call.
	k.recycle(e)
	if k.afterStep != nil {
		k.afterStep()
	}
	return true
}

// RunUntil executes events until the clock would pass deadline or the event
// list empties, then sets the clock to deadline (if it is ahead). Events
// scheduled exactly at the deadline are executed.
func (k *Kernel) RunUntil(deadline Time) {
	for {
		at, ok := k.q.PeekAt()
		if !ok || at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// Run executes events until the list is empty. maxEvents guards against
// runaway models; 0 means no limit.
func (k *Kernel) Run(maxEvents uint64) {
	start := k.Processed
	for k.Step() {
		if maxEvents > 0 && k.Processed-start >= maxEvents {
			panic(fmt.Sprintf("sim: exceeded %d events — runaway model?", maxEvents))
		}
	}
}
