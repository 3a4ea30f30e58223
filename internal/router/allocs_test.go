package router

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// Zero-alloc gates for the steady-state packet path through the router:
// fault-free fabric delivery (lookup → segmentation → fabric → reassembly)
// must not allocate once warm.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	if testutil.PoolcheckEnabled {
		t.Skip("poolcheck released-set bookkeeping allocates by design")
	}
}

func TestDeliverSteadyStateAllocFree(t *testing.T) {
	skipUnderRace(t)
	r := newDRARouter(t, 6, 3)
	settle(r)
	p := packet.Get()
	defer packet.Release(p)
	id := uint64(0)
	deliver := func() {
		for dst := 1; dst < 4; dst++ {
			id++
			*p = packet.Packet{
				ID:    id,
				SrcLC: 0,
				DstIP: workload.PrefixFor(dst) | 0x123,
				DstLC: -1,
				Proto: packet.ProtoEthernet,
				Bytes: 1500,
			}
			if rep := r.Deliver(p); rep.Kind != PathFabric {
				t.Fatalf("fault-free delivery took %v", rep.Kind)
			}
		}
	}
	for i := 0; i < 16; i++ { // warm cell buffer, reassembler free lists
		deliver()
	}
	if n := testing.AllocsPerRun(200, deliver); n != 0 {
		t.Fatalf("steady-state Deliver allocates %v per 3 packets, want 0", n)
	}
}
