package router

import (
	"encoding/json"
	"repro/internal/eib"
	"repro/internal/trace"
	"testing"

	"repro/internal/linecard"
	"repro/internal/packet"
	"repro/internal/workload"
)

// newDRARouter builds a standard N=6, M=3 DRA router with routes
// installed and coverage handshakes drained.
func newDRARouter(t *testing.T, n, m int) *Router {
	t.Helper()
	r, err := New(UniformConfig(linecard.DRA, n, m))
	if err != nil {
		t.Fatal(err)
	}
	r.InstallUniformRoutes()
	return r
}

func newBDRRouter(t *testing.T, n int) *Router {
	t.Helper()
	r, err := New(UniformConfig(linecard.BDR, n, n))
	if err != nil {
		t.Fatal(err)
	}
	r.InstallUniformRoutes()
	return r
}

// settle drains pending EIB handshakes.
func settle(r *Router) { r.Kernel().Run(100000) }

// pkt builds a packet from src to the /8 owned by dst.
func pkt(id uint64, src, dst int) *packet.Packet {
	return &packet.Packet{
		ID:    id,
		SrcLC: src,
		DstIP: workload.PrefixFor(dst) | 0x123,
		DstLC: -1,
		Proto: packet.ProtoEthernet,
		Bytes: 1500,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Protocols: []packet.Protocol{0}}); err == nil {
		t.Fatal("single-LC router accepted")
	}
}

func TestUniformConfigProtocols(t *testing.T) {
	cfg := UniformConfig(linecard.DRA, 6, 3)
	for i := 0; i < 3; i++ {
		if cfg.Protocols[i] != packet.ProtoEthernet {
			t.Fatalf("LC %d proto = %v", i, cfg.Protocols[i])
		}
	}
	for i := 3; i < 6; i++ {
		if cfg.Protocols[i] == packet.ProtoEthernet {
			t.Fatalf("LC %d should not share protocol 0", i)
		}
	}
}

func TestHealthyDeliveryViaFabric(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	rep := r.Deliver(pkt(1, 0, 4))
	if rep.Kind != PathFabric {
		t.Fatalf("path = %v (%s)", rep.Kind, rep.DropReason)
	}
	if rep.Cells != packet.CellsFor(1500) {
		t.Fatalf("cells = %d", rep.Cells)
	}
	m := r.Metrics()
	if m.Delivered != 1 || m.Dropped != 0 || m.ViaFabric != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if r.LC(4).Delivered != 1 {
		t.Fatal("egress LC delivery counter")
	}
}

func TestHairpinDelivery(t *testing.T) {
	r := newDRARouter(t, 4, 2)
	p := &packet.Packet{ID: 1, SrcLC: 2, DstIP: workload.PrefixFor(2) | 9, DstLC: -1, Bytes: 100}
	rep := r.Deliver(p)
	if rep.Kind != PathFabric || rep.Cells != 0 {
		t.Fatalf("hairpin = %+v", rep)
	}
}

func TestBDRAnyFailureKillsLC(t *testing.T) {
	r := newBDRRouter(t, 4)
	if !r.CanDeliver(1) {
		t.Fatal("healthy BDR LC down")
	}
	r.FailComponent(1, linecard.SRU)
	if r.CanDeliver(1) {
		t.Fatal("BDR LC with failed SRU still up")
	}
	rep := r.Deliver(pkt(1, 1, 2))
	if rep.Kind != PathDropped {
		t.Fatalf("BDR packet survived SRU failure: %+v", rep)
	}
	// Repair restores.
	r.RepairLC(1)
	if !r.CanDeliver(1) {
		t.Fatal("repair did not restore")
	}
	if rep := r.Deliver(pkt(2, 1, 2)); rep.Kind != PathFabric {
		t.Fatalf("post-repair path = %v", rep.Kind)
	}
}

func TestDRACase2SRUCoverage(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	r.FailComponent(0, linecard.SRU)
	settle(r)
	if !r.CanDeliver(0) {
		t.Fatal("SRU failure not coverable")
	}
	peer := r.CoverPeer(0)
	if peer < 0 {
		t.Fatal("no coverage binding established")
	}
	rep := r.Deliver(pkt(1, 0, 4))
	if rep.Kind != PathIngressCover {
		t.Fatalf("path = %v (%s)", rep.Kind, rep.DropReason)
	}
	if rep.IngressVia != peer {
		t.Fatalf("IngressVia = %d, want %d", rep.IngressVia, peer)
	}
	if r.Metrics().ViaEIB == 0 {
		t.Fatal("EIB counter untouched")
	}
	if r.Bus().ActiveLPs() != 1 {
		t.Fatalf("ActiveLPs = %d", r.Bus().ActiveLPs())
	}
}

func TestDRACase2PDLUNeedsSameProtocol(t *testing.T) {
	// M=1: LC 0 is the only Ethernet card; its PDLU failure is not
	// coverable.
	r := newDRARouter(t, 5, 1)
	r.FailComponent(0, linecard.PDLU)
	settle(r)
	if r.CanDeliver(0) {
		t.Fatal("PDLU failure covered without a same-protocol peer")
	}
	rep := r.Deliver(pkt(1, 0, 2))
	if rep.Kind != PathDropped {
		t.Fatalf("packet survived: %+v", rep)
	}

	// With M=3 the same failure is covered by a same-protocol LC.
	r2 := newDRARouter(t, 5, 3)
	r2.FailComponent(0, linecard.PDLU)
	settle(r2)
	if !r2.CanDeliver(0) {
		t.Fatal("PDLU failure not covered despite same-protocol peers")
	}
	peer := r2.CoverPeer(0)
	if peer < 1 || peer > 2 {
		t.Fatalf("cover peer = %d, want a same-protocol LC (1 or 2)", peer)
	}
	rep = r2.Deliver(pkt(1, 0, 4))
	if rep.Kind != PathIngressCover {
		t.Fatalf("path = %v (%s)", rep.Kind, rep.DropReason)
	}
}

func TestDRALFERemoteLookup(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	r.FailComponent(0, linecard.LFE)
	settle(r)
	if !r.CanDeliver(0) {
		t.Fatal("LFE failure not coverable")
	}
	// No data binding needed for a pure LFE failure.
	if r.CoverPeer(0) != -1 {
		t.Fatal("LFE failure opened a data LP")
	}
	rep := r.Deliver(pkt(1, 0, 4))
	if rep.Kind != PathFabric {
		t.Fatalf("path = %v (%s)", rep.Kind, rep.DropReason)
	}
	if rep.RemoteLookup < 0 {
		t.Fatal("lookup was not remote")
	}
	if r.Metrics().RemoteLookups != 1 {
		t.Fatal("RemoteLookups counter")
	}
	if r.LC(rep.RemoteLookup).LookupsServedForPeers != 1 {
		t.Fatal("peer lookup counter")
	}
}

func TestDRACase3EgressPDLUDirectSameProtocol(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	// Egress LC 1 (Ethernet) loses its PDLU; ingress LC 0 is also
	// Ethernet → EIB-direct.
	r.FailComponent(1, linecard.PDLU)
	settle(r)
	rep := r.Deliver(pkt(1, 0, 1))
	if rep.Kind != PathEgressDirect {
		t.Fatalf("path = %v (%s)", rep.Kind, rep.DropReason)
	}
	if rep.Cells != 0 {
		t.Fatal("EIB-direct path should not segment into fabric cells")
	}
}

func TestDRACase3EgressPDLUViaIntermediate(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	// Egress LC 3 is non-Ethernet; ingress LC 0 is Ethernet. LC 3's
	// protocol twin must relay.
	outProto := r.LC(3).Protocol()
	twin := -1
	for j := 0; j < 6; j++ {
		if j != 3 && r.LC(j).Protocol() == outProto {
			twin = j
		}
	}
	if twin < 0 {
		t.Skip("configuration has no protocol twin for LC 3")
	}
	r.FailComponent(3, linecard.PDLU)
	settle(r)
	rep := r.Deliver(pkt(1, 0, 3))
	if rep.Kind != PathEgressInter {
		t.Fatalf("path = %v (%s)", rep.Kind, rep.DropReason)
	}
	if rep.EgressVia != twin {
		t.Fatalf("EgressVia = %d, want %d", rep.EgressVia, twin)
	}
	if r.LC(3).Delivered != 1 {
		t.Fatal("delivery credited to wrong LC")
	}
}

func TestDRACase3EgressPDLUNoIntermediate(t *testing.T) {
	// N=5, M=1 via a custom protocol layout where LC 4's protocol is
	// unique: ingress Ethernet cannot help, no twin exists → drop.
	cfg := UniformConfig(linecard.DRA, 5, 4)
	cfg.Protocols[4] = packet.ProtoFrameRelay
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.InstallUniformRoutes()
	r.FailComponent(4, linecard.PDLU)
	settle(r)
	rep := r.Deliver(pkt(1, 0, 4))
	if rep.Kind != PathDropped || rep.DropReason != "no intermediate LC for egress PDLU" {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestDRACase3EgressSRUCover(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	r.FailComponent(4, linecard.SRU)
	settle(r)
	rep := r.Deliver(pkt(1, 0, 4))
	if rep.Kind != PathEgressSRUCover {
		t.Fatalf("path = %v (%s)", rep.Kind, rep.DropReason)
	}
}

func TestPIUFailureUncoverable(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	r.FailComponent(2, linecard.PIU)
	settle(r)
	if r.CanDeliver(2) {
		t.Fatal("PIU failure covered")
	}
	if rep := r.Deliver(pkt(1, 2, 4)); rep.Kind != PathDropped || rep.DropReason != "ingress PIU failed" {
		t.Fatalf("ingress rep = %+v", rep)
	}
	if rep := r.Deliver(pkt(2, 0, 2)); rep.Kind != PathDropped || rep.DropReason != "egress PIU failed" {
		t.Fatalf("egress rep = %+v", rep)
	}
}

func TestBusFailureRemovesCoverage(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	r.FailComponent(0, linecard.SRU)
	settle(r)
	if !r.CanDeliver(0) {
		t.Fatal("precondition: covered")
	}
	r.FailBus()
	if r.CanDeliver(0) {
		t.Fatal("coverage survived bus failure")
	}
	if rep := r.Deliver(pkt(1, 0, 4)); rep.Kind != PathDropped {
		t.Fatalf("rep = %+v", rep)
	}
	// Healthy LCs keep routing through the fabric.
	if !r.CanDeliver(1) {
		t.Fatal("healthy LC down after bus failure")
	}
	if rep := r.Deliver(pkt(2, 1, 4)); rep.Kind != PathFabric {
		t.Fatalf("healthy path = %v", rep.Kind)
	}
	// Bus repair re-establishes coverage.
	r.RepairBus()
	settle(r)
	if !r.CanDeliver(0) {
		t.Fatal("coverage not re-established after bus repair")
	}
	if r.CoverPeer(0) < 0 {
		t.Fatal("binding not re-established")
	}
}

func TestOwnBusControllerFailureBlocksCoverage(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	r.FailComponent(0, linecard.BusController)
	r.FailComponent(0, linecard.SRU)
	settle(r)
	if r.CanDeliver(0) {
		t.Fatal("covered without own bus controller")
	}
	r.RepairComponent(0, linecard.BusController)
	settle(r)
	if !r.CanDeliver(0) {
		t.Fatal("not covered after controller repair")
	}
}

func TestCovererFailureTriggersRebinding(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	r.FailComponent(0, linecard.SRU)
	settle(r)
	first := r.CoverPeer(0)
	if first < 0 {
		t.Fatal("no initial binding")
	}
	// Kill the coverer's SRU: it can no longer cover PI failures.
	r.FailComponent(first, linecard.SRU)
	settle(r)
	second := r.CoverPeer(0)
	if second == first {
		t.Fatalf("binding still on dead coverer %d", first)
	}
	if second < 0 {
		t.Fatal("no rebinding after coverer failure")
	}
	if !r.CanDeliver(0) {
		t.Fatal("LC 0 down despite available coverers")
	}
}

func TestFabricPortFailureFallsBackToEIB(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	r.Fabric().FailPort(0)
	rep := r.Deliver(pkt(1, 0, 4))
	if rep.Kind != PathEIBFallback {
		t.Fatalf("path = %v (%s)", rep.Kind, rep.DropReason)
	}
	// BDR drops instead.
	rb := newBDRRouter(t, 4)
	rb.Fabric().FailPort(0)
	if rep := rb.Deliver(pkt(1, 0, 2)); rep.Kind != PathDropped {
		t.Fatalf("BDR rep = %+v", rep)
	}
}

func TestIngressPortFaultDropsOnlyThatPort(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	r.LC(0).FailPort(1)
	p := pkt(1, 0, 4)
	p.SrcPort = 1
	if rep := r.Deliver(p); rep.Kind != PathDropped || rep.DropReason != "ingress port down" {
		t.Fatalf("rep = %+v", rep)
	}
	p2 := pkt(2, 0, 4)
	p2.SrcPort = 0
	if rep := r.Deliver(p2); rep.Kind != PathFabric {
		t.Fatalf("healthy port affected: %+v", rep)
	}
	// Service predicate is LC-level and stays up.
	if !r.CanDeliver(0) {
		t.Fatal("single port cut took the LC down")
	}
}

func TestConservationOfPackets(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	r.FailComponent(0, linecard.SRU)
	r.FailComponent(3, linecard.PDLU)
	settle(r)
	const n = 500
	for i := 0; i < n; i++ {
		src := i % 6
		dst := (i*7 + 1) % 6
		if dst == src {
			dst = (dst + 1) % 6
		}
		r.Deliver(pkt(uint64(i), src, dst))
	}
	m := r.Metrics()
	if m.Delivered+m.Dropped != n {
		t.Fatalf("delivered %d + dropped %d != %d", m.Delivered, m.Dropped, n)
	}
	var perLC uint64
	for i := 0; i < 6; i++ {
		perLC += r.LC(i).Delivered
	}
	if perLC != m.Delivered {
		t.Fatalf("per-LC delivered %d != total %d", perLC, m.Delivered)
	}
}

func TestCoverageRefusedWhenNoSpareCapacity(t *testing.T) {
	// The processing tier's capacity check: peers running at ~full load
	// must refuse REQ_D even when healthy (ψ < asked rate).
	r := newDRARouter(t, 4, 4)
	for i := 1; i < 4; i++ {
		r.SetOfferedLoad(i, 0.999*r.LC(i).Capacity())
	}
	r.SetOfferedLoad(0, 0.5*r.LC(0).Capacity()) // asks for 5 Gbps of coverage
	r.FailComponent(0, linecard.SRU)
	settle(r)
	if r.CoverPeer(0) != -1 {
		t.Fatalf("binding established despite no spare capacity (peer %d)", r.CoverPeer(0))
	}
	if r.Metrics().CoverageFailed == 0 {
		t.Fatal("no failed coverage attempts recorded")
	}
	// Freeing capacity and re-triggering reconciliation (via a repair
	// event elsewhere) restores coverage.
	r.SetOfferedLoad(1, 0.1*r.LC(1).Capacity())
	r.FailComponent(2, linecard.LFE) // any event reconciles
	settle(r)
	if r.CoverPeer(0) != 1 {
		t.Fatalf("coverage not re-established after capacity freed (peer %d)", r.CoverPeer(0))
	}
}

func TestSetOfferedLoadValidation(t *testing.T) {
	r := newDRARouter(t, 4, 2)
	r.SetOfferedLoad(0, r.LC(0).Capacity()*0.5)
	if r.OfferedLoad(0) != r.LC(0).Capacity()*0.5 {
		t.Fatal("offered load not stored")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.SetOfferedLoad(0, -1)
}

// Tracer returns the attached recorder (nil when tracing is off).
func (r *Router) Tracer() *trace.Recorder { return r.tr }

// Controller returns LC i's bus controller (nil under BDR).
func (r *Router) Controller(i int) *eib.Controller {
	if r.ctrl == nil {
		return nil
	}
	return r.ctrl[i]
}

// MetricsJSON renders the counter snapshot as JSON for ops tooling.
func (r *Router) MetricsJSON() ([]byte, error) {
	return json.MarshalIndent(r.m, "", "  ")
}
