package dra

import (
	"strings"
	"testing"
)

func TestSystemReportHealthy(t *testing.T) {
	r, err := UniformRouter(DRA, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := SystemReport(r)
	for _, want := range []string{
		"4 linecards, DRA architecture",
		"LC0", "Ethernet", "service up", "healthy",
		"fabric: 5/5 cards healthy, capacity 100%",
		"EIB: up, 0 active LPs",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSystemReportDegraded(t *testing.T) {
	r, err := UniformRouter(DRA, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.FailComponent(0, SRU)
	r.FailComponent(4, PIU)
	r.Kernel().Run(100000)
	// Push one packet so traffic and drop sections populate.
	gen, err := UniformTraffic(r, 1, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, p := gen.Next()
	r.Deliver(p)
	pp := &Packet{ID: 99, SrcLC: 4, DstIP: 0x0a000001, DstLC: -1, Bytes: 100}
	r.Deliver(pp)

	out := SystemReport(r)
	for _, want := range []string{
		"FAILED: SRU", "covered-by=LC1",
		"FAILED: PIU", "service DOWN",
		"ports 0/4",
		"drop reasons:",
		"ingress PIU failed",
		"mean latency",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSystemReportBDRNoBusSection(t *testing.T) {
	r, err := UniformRouter(BDR, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(SystemReport(r), "EIB:") {
		t.Fatal("BDR report mentions the EIB")
	}
}
