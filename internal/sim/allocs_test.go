package sim

import (
	"testing"

	"repro/internal/testutil"
)

// The zero-alloc regression wall for the DES core. Each test warms the
// relevant pools, then pins the steady-state allocation count to zero with
// testing.AllocsPerRun. Any regression — a new closure in the hot loop, a
// lost free-list, an event record escaping — fails here before it shows up
// as a throughput loss in the benchmark.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
}

// TestKernelSteadyStateAllocFree pins the self-rescheduling event loop —
// the shape of every steady-state DES workload — to zero allocations per
// event once the event free list is warm.
func TestKernelSteadyStateAllocFree(t *testing.T) {
	skipUnderRace(t)
	k := NewKernel()
	var fire func()
	fire = func() { k.After(1, fire) }
	fire()
	for i := 0; i < 100; i++ { // warm the event free list
		k.Step()
	}
	if n := testing.AllocsPerRun(200, func() { k.Step() }); n != 0 {
		t.Fatalf("kernel steady-state Step allocates %v per event, want 0", n)
	}
}

// TestSchedulerOpsAllocFree pins Heap Push/Pop to zero allocations under
// the hold model — pop one, push one at a stationary population, the shape
// of a steady-state DES future event list — once heap storage has grown to
// the working set.
func TestSchedulerOpsAllocFree(t *testing.T) {
	skipUnderRace(t)
	t.Run("heap", func(t *testing.T) {
		var h Heap
		var now Time
		var seq uint64
		for i := 0; i < 64; i++ {
			seq++
			h.Push(&Event{at: Time(i%7) + 1, seq: seq})
		}
		hold := func() {
			for i := 0; i < 64; i++ {
				e := h.Pop()
				now = e.at
				seq++
				e.at, e.seq = now+Time(seq%7)+1, seq
				h.Push(e)
			}
		}
		for i := 0; i < 32; i++ { // warm storage
			hold()
		}
		if n := testing.AllocsPerRun(100, hold); n != 0 {
			t.Fatalf("heap hold cycle allocates %v, want 0", n)
		}
	})
}

// TestRescheduleAllocFree pins the bulk RescheduleLazy/Commit retarget
// path to zero allocations.
func TestRescheduleAllocFree(t *testing.T) {
	skipUnderRace(t)
	k := NewKernel()
	var tms [32]Timer
	for i := range tms {
		tms[i] = k.After(Time(1+i), func() {})
	}
	var base Time
	bulk := func() {
		base++
		for i := range tms {
			tms[i] = k.RescheduleLazy(tms[i], k.Now()+base+Time(i))
		}
		k.Commit()
	}
	bulk()
	if n := testing.AllocsPerRun(100, bulk); n != 0 {
		t.Fatalf("RescheduleLazy/Commit allocates %v per 32 retargets, want 0", n)
	}
}
