package eib

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/xrand"
)

// Zero-alloc gates for the EIB hot paths: the TDM slot loop (with and
// without a driving kernel) and steady-state control-packet broadcast.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
}

func TestSlotLoopAllocFree(t *testing.T) {
	skipUnderRace(t)
	s := NewSlotSim([]int{0, 1, 2, 3})
	s.Open(0, 0.4)
	s.Open(1, 0.3)
	s.Open(2, 0.5) // oversubscribed: the scale-back path runs too
	s.Run(256)     // settle turn rotation
	if n := testing.AllocsPerRun(100, func() { s.Run(64) }); n != 0 {
		t.Fatalf("TDM slot loop allocates %v per 64 slots, want 0", n)
	}
}

func TestBroadcastSteadyStateAllocFree(t *testing.T) {
	skipUnderRace(t)
	k := sim.NewKernel()
	b, err := NewBus(k, xrand.New(3), DefaultBusConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for lc := 0; lc < 4; lc++ {
		b.Attach(lc, func(ControlPacket) { got++ })
	}
	send := func() {
		p := ControlPacket{Type: REQD, Init: 0, Rec: Broadcast, DataRate: 1e9}
		if err := b.Broadcast(p, nil); err != nil {
			t.Fatalf("Broadcast: %v", err)
		}
		k.Run(0)
	}
	for i := 0; i < 32; i++ { // warm the delivery and event pools
		send()
	}
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Fatalf("steady-state Broadcast allocates %v, want 0", n)
	}
	if got == 0 {
		t.Fatal("handlers never ran")
	}
}
