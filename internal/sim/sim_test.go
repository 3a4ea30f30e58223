package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(3, func() { order = append(order, 3) })
	k.Schedule(1, func() { order = append(order, 1) })
	k.Schedule(2, func() { order = append(order, 2) })
	k.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 3 {
		t.Fatalf("clock = %v", k.Now())
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	k.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	k := NewKernel()
	var at Time
	k.After(2, func() {
		at = k.Now()
		k.After(3, func() { at = k.Now() })
	})
	k.Run(0)
	if at != 5 {
		t.Fatalf("nested After ended at %v, want 5", at)
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.Schedule(1, func() { fired = true })
	if !tm.Active() {
		t.Fatal("Active() false while pending")
	}
	k.Cancel(tm)
	k.Cancel(tm) // idempotent
	k.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if tm.Active() {
		t.Fatal("Active() true after Cancel")
	}
	if k.Processed != 0 {
		t.Fatalf("Processed = %d", k.Processed)
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	k := NewKernel()
	tm := k.Schedule(1, func() {})
	k.Run(0)
	if tm.Active() {
		t.Fatal("Active() true after fire")
	}
	k.Cancel(tm) // must not panic
}

func TestCancelZeroTimerIsNoop(t *testing.T) {
	k := NewKernel()
	k.Cancel(Timer{}) // must not panic
	if (Timer{}).Active() {
		t.Fatal("zero Timer reports Active")
	}
}

// A stale Timer whose event record has been recycled for a new event must
// not cancel the new event.
func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	k := NewKernel()
	var stale Timer
	fired := false
	stale = k.Schedule(1, func() {})
	k.Run(0) // fires; record goes to the free list
	tm := k.Schedule(k.Now()+1, func() { fired = true })
	k.Cancel(stale) // generation mismatch: no-op
	if !tm.Active() {
		t.Fatal("stale Cancel detached the recycled event")
	}
	k.Run(0)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestSelfCancelInsideCallback(t *testing.T) {
	k := NewKernel()
	var tm Timer
	tm = k.Schedule(1, func() {
		k.Cancel(tm) // cancelling the firing event must be a no-op
	})
	k.Run(0)
	if k.Processed != 1 {
		t.Fatalf("Processed = %d", k.Processed)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(5, func() {})
	k.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Schedule(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKernel().After(-1, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKernel().Schedule(0, nil)
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		k.Schedule(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 1..3", fired)
	}
	if k.Now() != 3 {
		t.Fatalf("clock = %v, want 3", k.Now())
	}
	if k.Pending() != 2 {
		t.Fatalf("pending = %d", k.Pending())
	}
	k.RunUntil(10)
	if k.Now() != 10 || k.Pending() != 0 {
		t.Fatalf("after second RunUntil: now=%v pending=%d", k.Now(), k.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel()
	k.RunUntil(42)
	if k.Now() != 42 {
		t.Fatalf("idle clock = %v", k.Now())
	}
}

func TestRunawayGuard(t *testing.T) {
	k := NewKernel()
	var loop func()
	loop = func() { k.After(1, loop) }
	k.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected runaway panic")
		}
	}()
	k.Run(100)
}

// Property: regardless of insertion order, events fire in time order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			k.Schedule(at, func() { fired = append(fired, at) })
		}
		k.Run(0)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUpDownTracker(t *testing.T) {
	k := NewKernel()
	tr := NewUpDownTracker(k)
	k.Schedule(10, func() { tr.SetUp(false) })
	k.Schedule(15, func() { tr.SetUp(true) })
	k.Schedule(20, func() { tr.SetUp(false) })
	k.RunUntil(25)
	if got := tr.UpTime(); got != 15 {
		t.Fatalf("UpTime = %v, want 15", got)
	}
	if got := tr.DownTime(); got != 10 {
		t.Fatalf("DownTime = %v, want 10", got)
	}
	if a := tr.Availability(); a != 0.6 {
		t.Fatalf("Availability = %v, want 0.6", a)
	}
	if tr.Flips() != 3 {
		t.Fatalf("Flips = %d", tr.Flips())
	}
	first, ok := tr.FirstDown()
	if !ok || first != 10 {
		t.Fatalf("FirstDown = %v, %v", first, ok)
	}
	if tr.Up() {
		t.Fatal("tracker should be down")
	}
}

func TestUpDownTrackerRedundantTransitions(t *testing.T) {
	k := NewKernel()
	tr := NewUpDownTracker(k)
	tr.SetUp(true) // no-op
	if tr.Flips() != 0 {
		t.Fatal("redundant SetUp counted as flip")
	}
	if a := tr.Availability(); a != 1 {
		t.Fatalf("zero-elapsed availability = %v, want 1", a)
	}
	if _, ok := tr.FirstDown(); ok {
		t.Fatal("FirstDown set without any down transition")
	}
}

func BenchmarkKernelThroughput(b *testing.B) {
	k := NewKernel()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	b.ResetTimer()
	k.Run(0)
}

// At returns the time the timer was scheduled for. It stays valid after
// the event fires or is cancelled.
func (t Timer) At() Time { return t.at }

// Active reports whether the event is still pending: not yet fired, not
// cancelled. During the event's own callback it already reports false.
func (t Timer) Active() bool {
	return t.e != nil && t.e.gen == t.gen && t.e.pos >= 0
}

// Pending returns the number of events still queued.
func (k *Kernel) Pending() int { return k.q.Len() }

// Up reports whether the entity is currently up.
func (t *UpDownTracker) Up() bool { return t.up }

// UpTime returns the accumulated up time including the current interval.
func (t *UpDownTracker) UpTime() Time {
	t.accumulate()
	return t.upTime
}

// DownTime returns the accumulated down time including the current interval.
func (t *UpDownTracker) DownTime() Time {
	t.accumulate()
	return t.downTime
}

// Flips returns the number of state changes.
func (t *UpDownTracker) Flips() int { return t.flips }

// FirstDown returns the time of the first down transition and whether the
// entity has ever gone down.
func (t *UpDownTracker) FirstDown() (Time, bool) { return t.firstDown, t.wentDownSet }
