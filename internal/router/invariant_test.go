package router

import (
	"strings"
	"testing"

	"repro/internal/eib"
	"repro/internal/invariant"
	"repro/internal/linecard"
	"repro/internal/trace"
)

// attachWall wires a fresh invariant checker into the router.
func attachWall(r *Router) *invariant.Checker {
	c := invariant.New()
	r.AttachInvariants(c)
	return c
}

// sweepNow forces one invariant sweep by pushing a no-op event through
// the kernel (the checker runs from the after-step hook).
func sweepNow(r *Router) {
	r.Kernel().After(0, func() {})
	r.Kernel().Step()
}

// TestInvariantWallCleanOnHealthyChurn: a realistic fault/repair storm
// through the public entry points raises no violations — the wall is
// quiet when the model is correct.
func TestInvariantWallCleanOnHealthyChurn(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	c := attachWall(r)
	for i := 0; i < 6; i++ {
		r.SetOfferedLoad(i, 0.3*r.LC(i).Capacity())
	}
	r.FailComponent(1, linecard.PDLU)
	settle(r)
	r.FailComponent(4, linecard.SRU)
	settle(r)
	r.FailBus()
	settle(r)
	r.RepairBus()
	settle(r)
	r.RepairLC(1)
	r.RepairLC(4)
	settle(r)
	for i := 0; i < 100; i++ {
		p := pkt(uint64(i), i%6, (i+2)%6)
		r.Deliver(p)
	}
	sweepNow(r)
	if err := c.Err(); err != nil {
		t.Fatalf("healthy churn raised violations: %v", err)
	}
	if c.Total() != 0 {
		t.Fatalf("Total = %d", c.Total())
	}
}

// TestInvariantWallCatchesBrokenCoverageRule proves the checker is
// live: bypassing the admission path and opening a raw LP on the bus —
// a grant no donor agreed to, exceeding its spare capacity — must be
// caught by the wall. This is the ISSUE's "intentionally-broken
// coverage rule in a test build".
func TestInvariantWallCatchesBrokenCoverageRule(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	c := attachWall(r)
	// Donor LC 1 is fully loaded: zero spare capacity.
	r.SetOfferedLoad(1, r.LC(1).Capacity())
	// Break the rule: open a data-line path granting LC 0 the donor's
	// entire capacity, without any admission check or binding.
	if _, err := r.Bus().OpenLP(0, 1, r.LC(1).Capacity(), eib.Forward); err != nil {
		t.Fatal(err)
	}
	sweepNow(r)
	if c.Total() == 0 {
		t.Fatal("broken coverage rule went undetected")
	}
	names := map[string]bool{}
	for _, v := range c.Violations() {
		names[v.Check] = true
	}
	if !names["coverage-spare"] {
		t.Fatalf("expected a coverage-spare violation, got %v", c.Violations())
	}
	if !names["binding-lp"] {
		t.Fatalf("expected a binding-lp orphan violation, got %v", c.Violations())
	}
}

// TestInvariantWallCatchesDuplicateLP: an LC holding two simultaneous
// data-line paths breaks LP uniqueness the moment the second opens.
func TestInvariantWallCatchesDuplicateLP(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	c := attachWall(r)
	if _, err := r.Bus().OpenLP(2, 3, 1e9, eib.Forward); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Bus().OpenLP(2, 4, 1e9, eib.Forward); err != nil {
		t.Fatal(err)
	}
	sweepNow(r)
	found := false
	for _, v := range c.Violations() {
		if v.Check == "lp-unique" && strings.Contains(v.Detail, "LC 2") {
			found = true
		}
	}
	if !found {
		t.Fatalf("duplicate LP went undetected: %v", c.Violations())
	}
}

// TestInvariantDetach: AttachInvariants(nil) returns the router to the
// free disabled state.
func TestInvariantDetach(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	attachWall(r)
	r.AttachInvariants(nil)
	if r.Invariants() != nil {
		t.Fatal("checker still attached")
	}
	r.FailComponent(1, linecard.PDLU)
	settle(r)
	if rep := r.Deliver(pkt(1, 1, 4)); rep.Kind == PathDropped {
		t.Fatalf("delivery failed after detach: %v", rep.DropReason)
	}
}

// --- Coverage revocation under mid-flight donor failure ---

// TestRevocationOnDonorDeath: the donor LC dies while its coverage
// grant is active; the binding must be revoked and re-homed to another
// qualified donor, with the invariant wall quiet throughout.
func TestRevocationOnDonorDeath(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	c := attachWall(r)
	tr := trace.New(128)
	r.SetTracer(tr)
	r.FailComponent(1, linecard.PDLU)
	settle(r)
	donor := r.CoverPeer(1)
	if donor < 0 {
		t.Fatal("no coverage established")
	}
	// Kill the donor's PDLU mid-grant: the binding is now invalid.
	r.FailComponent(donor, linecard.PDLU)
	settle(r)
	if got := r.CoverPeer(1); got == donor {
		t.Fatalf("binding still points at dead donor %d", donor)
	}
	// With LCs 0–2 sharing the protocol, a third donor exists.
	if got := r.CoverPeer(1); got < 0 {
		t.Fatal("coverage not re-homed after donor death")
	}
	if tr.Count(trace.CoverageDown) == 0 {
		t.Fatal("revocation left no coverage-down trace event")
	}
	if !r.CanDeliver(1) {
		t.Fatal("LC 1 should stay deliverable through the re-home")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("revocation raised violations: %v", err)
	}
}

// TestRevocationOnLastDonorDeath: when the dying donor was the only
// qualified peer, the binding is revoked and not replaced, and the
// faulty LC's service goes down.
func TestRevocationOnLastDonorDeath(t *testing.T) {
	// M=2: LCs 0 and 1 share Ethernet — LC 1's PDLU fault has exactly
	// one qualified donor (LC 0).
	r := newDRARouter(t, 6, 2)
	c := attachWall(r)
	r.FailComponent(1, linecard.PDLU)
	settle(r)
	if got := r.CoverPeer(1); got != 0 {
		t.Fatalf("CoverPeer = %d, want 0", got)
	}
	r.FailComponent(0, linecard.PDLU)
	settle(r)
	if got := r.CoverPeer(1); got >= 0 {
		t.Fatalf("binding survived the last donor's death (peer %d)", got)
	}
	if r.CanDeliver(1) {
		t.Fatal("LC 1 cannot be deliverable with no qualified donor")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("revocation raised violations: %v", err)
	}
}

// TestRevocationOnDonorBusControllerDeath: the donor losing its bus
// controller severs the EIB path; the grant must be revoked even though
// the donor's PDLU itself is healthy.
func TestRevocationOnDonorBusControllerDeath(t *testing.T) {
	r := newDRARouter(t, 6, 3)
	c := attachWall(r)
	r.FailComponent(1, linecard.SRU)
	settle(r)
	donor := r.CoverPeer(1)
	if donor < 0 {
		t.Fatal("no coverage established")
	}
	r.FailComponent(donor, linecard.BusController)
	settle(r)
	if got := r.CoverPeer(1); got == donor {
		t.Fatalf("binding still points at off-bus donor %d", donor)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("revocation raised violations: %v", err)
	}
}

// TestDonorDeathMidHandshake: the only donor dies between the REQ_D
// broadcast and the REP_D commit; the in-flight handshake must not
// install a binding to the dead peer (the re-validation race guard).
func TestDonorDeathMidHandshake(t *testing.T) {
	r := newDRARouter(t, 6, 2)
	c := attachWall(r)
	// Start the handshake but do NOT settle: the REQ_D is in flight.
	r.FailComponent(1, linecard.PDLU)
	// The only qualified donor (LC 0) dies before the exchange lands.
	r.FailComponent(0, linecard.PDLU)
	settle(r)
	if got := r.CoverPeer(1); got >= 0 {
		t.Fatalf("mid-handshake death still installed a binding to %d", got)
	}
	if r.CanDeliver(1) {
		t.Fatal("LC 1 must be down with the only donor dead")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("mid-handshake race raised violations: %v", err)
	}
}

// BenchmarkInvariantOverhead measures the invariant wall's cost on the
// Deliver hot path: never attached (baseline), attached then detached
// with AttachInvariants(nil) (the disabled pattern — must match the
// baseline, it is one nil branch per hook), and fully armed. The armed
// case budget is <5% over baseline. Record with:
//
//	go test ./internal/router -bench BenchmarkInvariantOverhead -run ^$
func BenchmarkInvariantOverhead(b *testing.B) {
	soak := func(b *testing.B, arm func(*Router)) {
		r, err := New(UniformConfig(linecard.DRA, 6, 3))
		if err != nil {
			b.Fatal(err)
		}
		r.InstallUniformRoutes()
		if arm != nil {
			arm(r)
		}
		// Fault one PDLU so coverage bindings and LPs exist: the armed
		// sweep then has real structures to walk, not an empty model.
		r.FailComponent(1, linecard.PDLU)
		settle(r)
		p := pkt(1, 0, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.DstLC = -1
			r.Deliver(p)
		}
	}
	b.Run("baseline", func(b *testing.B) { soak(b, nil) })
	b.Run("disabled", func(b *testing.B) {
		soak(b, func(r *Router) {
			r.AttachInvariants(invariant.New())
			r.AttachInvariants(nil) // detach: hooks degrade to nil branches
		})
	})
	b.Run("enabled", func(b *testing.B) {
		soak(b, func(r *Router) { r.AttachInvariants(invariant.New()) })
	})
}

// Invariants returns the attached checker (nil when none).
func (r *Router) Invariants() *invariant.Checker { return r.inv }
