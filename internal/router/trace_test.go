package router

import (
	"repro/internal/packet"
	"strings"
	"testing"

	"repro/internal/linecard"
	"repro/internal/trace"
)

func TestRouterTraceRecordsLifecycle(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	rec := trace.New(64)
	r.SetTracer(rec)
	if r.Tracer() != rec {
		t.Fatal("tracer not attached")
	}

	r.FailComponent(0, linecard.SRU)
	settle(r)
	r.FailBus()
	r.RepairBus()
	settle(r)
	r.RepairLC(0)
	settle(r)
	r.FailComponent(4, linecard.PIU)
	settle(r)
	r.Deliver(pkt(1, 4, 2)) // drop: ingress PIU failed

	if rec.Count(trace.Fault) != 2 {
		t.Fatalf("faults = %d", rec.Count(trace.Fault))
	}
	if rec.Count(trace.CoverageUp) < 2 { // initial + re-established after bus repair
		t.Fatalf("coverage-up = %d", rec.Count(trace.CoverageUp))
	}
	if rec.Count(trace.BusDown) != 1 || rec.Count(trace.BusUp) != 1 {
		t.Fatal("bus events missing")
	}
	if rec.Count(trace.Drop) != 1 {
		t.Fatalf("drops = %d", rec.Count(trace.Drop))
	}
	dump := rec.Dump()
	for _, want := range []string{"fault", "SRU", "coverage-up", "bus-down", "drop", "ingress PIU failed"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestRouterWithoutTracerStillWorks(t *testing.T) {
	r := newDRARouter(t, 4, 2)
	r.FailComponent(0, linecard.SRU)
	settle(r)
	if !r.CanDeliver(0) {
		t.Fatal("behaviour changed without tracer")
	}
}

func TestMetricsJSON(t *testing.T) {
	r := newDRARouter(t, 4, 2)
	r.Deliver(pkt(1, 0, 2))
	data, err := r.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"Delivered": 1`, `"ViaFabric": 1`, `"Dropped": 0`} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %q:\n%s", want, s)
		}
	}
}

func TestDeliverFromChargesIngress(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	r.FailComponent(2, linecard.PIU)
	settle(r)
	r.DeliverFrom(pkt(1, 2, 4))
	if r.LC(2).Dropped != 1 {
		t.Fatalf("LC2 Dropped = %d", r.LC(2).Dropped)
	}
	r.DeliverFrom(pkt(2, 0, 4))
	if r.LC(0).Dropped != 0 {
		t.Fatal("successful delivery charged a drop")
	}
}

// DeliverFrom is Deliver plus ingress-side drop attribution: losses are
// charged to the ingress linecard's Dropped counter, giving per-LC loss
// rates for reports.
func (r *Router) DeliverFrom(p *packet.Packet) PathReport {
	rep := r.Deliver(p)
	if rep.Kind == PathDropped && p.SrcLC >= 0 && p.SrcLC < len(r.lcs) {
		r.lcs[p.SrcLC].Dropped++
		if r.im.lcDrops != nil {
			r.im.lcDrops.With(r.im.lcLabel[p.SrcLC], rep.DropReason).Inc()
		}
	}
	return rep
}
