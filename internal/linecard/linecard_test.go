package linecard

import (
	"testing"

	"repro/internal/forwarding"
	"repro/internal/packet"
)

func newDRA(t *testing.T, id int, proto packet.Protocol) *LC {
	t.Helper()
	lc, err := New(Config{ID: id, Arch: DRA, Protocol: proto, Ports: 4, Capacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

func newBDR(t *testing.T, id int) *LC {
	t.Helper()
	lc, err := New(Config{ID: id, Arch: BDR, Protocol: packet.ProtoEthernet, Ports: 4, Capacity: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Ports: 0, Capacity: 1}); err == nil {
		t.Fatal("zero ports accepted")
	}
	if _, err := New(Config{Ports: 1, Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestAccessors(t *testing.T) {
	lc := newDRA(t, 3, packet.ProtoSONET)
	if lc.ID() != 3 || lc.Arch() != DRA || lc.Protocol() != packet.ProtoSONET || lc.Ports() != 4 || lc.Capacity() != 10e9 {
		t.Fatal("accessor mismatch")
	}
	if lc.Arch().String() != "DRA" || BDR.String() != "BDR" {
		t.Fatal("arch names")
	}
}

func TestComponentNames(t *testing.T) {
	want := map[Component]string{PIU: "PIU", PDLU: "PDLU", SRU: "SRU", LFE: "LFE", BusController: "BusController"}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%v.String() = %q", c, c.String())
		}
	}
}

func TestFailRepair(t *testing.T) {
	lc := newDRA(t, 0, packet.ProtoEthernet)
	if !lc.FullyHealthy() {
		t.Fatal("fresh LC not healthy")
	}
	lc.Fail(SRU)
	if lc.Healthy(SRU) || lc.FullyHealthy() {
		t.Fatal("SRU failure not visible")
	}
	if got := lc.FailedComponents(); len(got) != 1 || got[0] != SRU {
		t.Fatalf("FailedComponents = %v", got)
	}
	lc.Repair(SRU)
	if !lc.FullyHealthy() {
		t.Fatal("repair did not restore health")
	}
	lc.Fail(PDLU)
	lc.Fail(LFE)
	lc.RepairAll()
	if !lc.FullyHealthy() {
		t.Fatal("RepairAll incomplete")
	}
}

func TestBDRHasNoPDLU(t *testing.T) {
	lc := newBDR(t, 0)
	if lc.Healthy(PDLU) || lc.Healthy(BusController) {
		t.Fatal("BDR LC claims DRA-only components healthy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("failing a missing component must panic")
		}
	}()
	lc.Fail(PDLU)
}

func TestBDRFullyHealthyIgnoresMissingUnits(t *testing.T) {
	lc := newBDR(t, 0)
	if !lc.FullyHealthy() {
		t.Fatal("fresh BDR LC should be fully healthy despite having no PDLU")
	}
}

func TestCoveragePredicates(t *testing.T) {
	eth := newDRA(t, 0, packet.ProtoEthernet)
	sonet := newDRA(t, 1, packet.ProtoSONET)

	if !eth.CanCoverPI() || !eth.CanCoverPDLU(packet.ProtoEthernet) {
		t.Fatal("healthy DRA LC must be able to cover")
	}
	if eth.CanCoverPDLU(packet.ProtoSONET) {
		t.Fatal("PDLU coverage must require same protocol")
	}
	if !sonet.CanCoverPI() {
		t.Fatal("PI coverage is protocol independent")
	}

	// A failed bus controller removes the LC from the EIB entirely.
	eth.Fail(BusController)
	if eth.OnEIB() || eth.CanCoverPI() || eth.CanCoverPDLU(packet.ProtoEthernet) || eth.CanCoverLookup() {
		t.Fatal("LC with failed bus controller still covering")
	}
	eth.Repair(BusController)

	// SRU failure blocks PI coverage but not PDLU coverage.
	eth.Fail(SRU)
	if eth.CanCoverPI() {
		t.Fatal("failed SRU but CanCoverPI")
	}
	if !eth.CanCoverPDLU(packet.ProtoEthernet) {
		t.Fatal("SRU failure must not block PDLU coverage (paper §3.2, λ_PD pools)")
	}
	eth.Repair(SRU)

	// PDLU failure blocks PDLU coverage but not PI coverage.
	eth.Fail(PDLU)
	if eth.CanCoverPDLU(packet.ProtoEthernet) {
		t.Fatal("failed PDLU but CanCoverPDLU")
	}
	if !eth.CanCoverPI() {
		t.Fatal("PDLU failure must not block PI coverage")
	}
}

func TestBDRNeverCovers(t *testing.T) {
	lc := newBDR(t, 0)
	if lc.OnEIB() || lc.CanCoverPI() || lc.CanCoverPDLU(packet.ProtoEthernet) || lc.CanCoverLookup() {
		t.Fatal("BDR LC participates in EIB coverage")
	}
}

func TestLocalPaths(t *testing.T) {
	lc := newDRA(t, 0, packet.ProtoEthernet)
	if !lc.LocalIngressPath() || !lc.LocalEgressPath() {
		t.Fatal("healthy LC paths broken")
	}
	lc.Fail(LFE)
	if lc.LocalIngressPath() {
		t.Fatal("ingress path with failed LFE")
	}
	if !lc.LocalEgressPath() {
		t.Fatal("egress path does not need the LFE")
	}
	lc.RepairAll()
	lc.Fail(PDLU)
	if lc.LocalIngressPath() || lc.LocalEgressPath() {
		t.Fatal("paths with failed PDLU")
	}
	lc.RepairAll()
	lc.Fail(PIU)
	if lc.LocalIngressPath() || lc.LocalEgressPath() {
		t.Fatal("paths with failed PIU")
	}

	// BDR LC paths do not consult the (absent) PDLU.
	b := newBDR(t, 1)
	if !b.LocalIngressPath() || !b.LocalEgressPath() {
		t.Fatal("healthy BDR LC paths broken")
	}
}

func TestLookup(t *testing.T) {
	lc := newDRA(t, 0, packet.ProtoEthernet)
	if _, err := lc.Lookup(42); err == nil {
		t.Fatal("lookup without table succeeded")
	}
	rp := forwarding.NewRouteProcessor()
	rp.Announce(forwarding.Route{Prefix: forwarding.MakePrefix(0x0a000000, 8), NextLC: 5})
	rp.Subscribe(lc.SetTable)
	got, err := lc.Lookup(0x0a010203)
	if err != nil || got != 5 {
		t.Fatalf("Lookup = %d, %v", got, err)
	}
	if _, err := lc.Lookup(0x0b000000); err == nil {
		t.Fatal("lookup of unrouted address succeeded")
	}
	lc.Fail(LFE)
	if _, err := lc.Lookup(0x0a010203); err == nil {
		t.Fatal("lookup with failed LFE succeeded")
	}
	if lc.Table() == nil {
		t.Fatal("Table() lost snapshot")
	}
	if !lc.Failed(LFE) {
		t.Fatal("Failed(LFE) false")
	}
}

func TestPortFaults(t *testing.T) {
	lc := newDRA(t, 0, packet.ProtoEthernet)
	if lc.PortsUp() != 4 {
		t.Fatalf("PortsUp = %d", lc.PortsUp())
	}
	lc.FailPort(2)
	if lc.PortUp(2) {
		t.Fatal("failed port reports up")
	}
	if !lc.PortUp(0) {
		t.Fatal("unrelated port down")
	}
	if lc.PortsUp() != 3 {
		t.Fatalf("PortsUp = %d", lc.PortsUp())
	}
	lc.RepairPort(2)
	if !lc.PortUp(2) {
		t.Fatal("repair ineffective")
	}
	// A PIU component fault takes every port down — the paper's "brings
	// down all its interfaces".
	lc.Fail(PIU)
	if lc.PortsUp() != 0 || lc.PortUp(0) {
		t.Fatal("ports up despite PIU fault")
	}
	lc.Repair(PIU)
	if lc.PortsUp() != 4 {
		t.Fatal("ports not restored with PIU")
	}
}

func TestPortOutOfRangePanics(t *testing.T) {
	lc := newDRA(t, 0, packet.ProtoEthernet)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lc.FailPort(9)
}

func TestCanCoverLookupNeedsTable(t *testing.T) {
	lc := newDRA(t, 0, packet.ProtoEthernet)
	if lc.CanCoverLookup() {
		t.Fatal("lookup coverage without a table")
	}
	rp := forwarding.NewRouteProcessor()
	rp.Subscribe(lc.SetTable)
	if !lc.CanCoverLookup() {
		t.Fatal("lookup coverage with table and healthy LFE should hold")
	}
	lc.Fail(LFE)
	if lc.CanCoverLookup() {
		t.Fatal("lookup coverage with failed LFE")
	}
}

// Table returns the LFE's current routing-table snapshot (nil before the
// first distribution).
func (l *LC) Table() *forwarding.Table { return l.table }
