package workload

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/xrand"
)

func TestAddrPoolDrawsRoutableSpread(t *testing.T) {
	rng := xrand.New(1)
	pool := NewAddrPool(rng, 6, 2)
	counts := make([]int, 6)
	for i := 0; i < 60000; i++ {
		a := pool.Draw()
		lc := EgressOf(a)
		if lc < 0 || lc >= 6 {
			t.Fatalf("address %08x maps to LC %d", a, lc)
		}
		if lc == 2 {
			t.Fatal("excluded LC drawn")
		}
		counts[lc]++
	}
	for lc, c := range counts {
		if lc == 2 {
			continue
		}
		if math.Abs(float64(c)-12000) > 600 {
			t.Fatalf("LC %d drawn %d times, want ~12000", lc, c)
		}
	}
}

func TestAddrPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAddrPool(xrand.New(1), 1, 0)
}

func TestPacketSizeMix(t *testing.T) {
	rng := xrand.New(2)
	counts := map[int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[PacketSize(rng)]++
	}
	if len(counts) != 3 {
		t.Fatalf("sizes seen: %v", counts)
	}
	if math.Abs(float64(counts[40])/n-0.5) > 0.01 ||
		math.Abs(float64(counts[576])/n-0.25) > 0.01 ||
		math.Abs(float64(counts[1500])/n-0.25) > 0.01 {
		t.Fatalf("size mix off: %v", counts)
	}
}

func TestPoissonOfferedLoad(t *testing.T) {
	rng := xrand.New(3)
	pool := NewAddrPool(rng, 4, 0)
	var ids uint64
	target := 1.5e9 // bits per unit
	g, err := NewPoisson(rng, pool, 0, packet.ProtoEthernet, target, &ids)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rate() != target {
		t.Fatalf("Rate = %g", g.Rate())
	}
	elapsed, bits := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		dt, p := g.Next()
		if p.SrcLC != 0 || p.DstLC != -1 || p.Proto != packet.ProtoEthernet {
			t.Fatalf("packet fields wrong: %+v", p)
		}
		if EgressOf(p.DstIP) == 0 {
			t.Fatal("hairpin destination drawn")
		}
		elapsed += dt
		bits += float64(p.Bytes * 8)
	}
	got := bits / elapsed
	if math.Abs(got-target)/target > 0.02 {
		t.Fatalf("offered load = %g, want %g", got, target)
	}
	if ids != n {
		t.Fatalf("ids = %d", ids)
	}
}

func TestPoissonValidation(t *testing.T) {
	rng := xrand.New(1)
	pool := NewAddrPool(rng, 2, -1)
	var ids uint64
	if _, err := NewPoisson(rng, pool, 0, packet.ProtoEthernet, 0, &ids); err == nil {
		t.Fatal("zero load accepted")
	}
}

func TestRoutesCoverAllLCs(t *testing.T) {
	rs := Routes(5)
	if len(rs) != 5 {
		t.Fatalf("len = %d", len(rs))
	}
	for lc, r := range rs {
		if r.NextLC != lc || r.Len != 8 || r.Addr != PrefixFor(lc) {
			t.Fatalf("route %d wrong: %+v", lc, r)
		}
	}
}

// EgressOf returns the egress LC owning addr under the AddrPool scheme,
// for assertions in tests.
func EgressOf(addr uint32) int { return int(addr>>24) - 10 }

// Rate implements Generator.
func (g *Poisson) Rate() float64 { return g.bitsPS }
