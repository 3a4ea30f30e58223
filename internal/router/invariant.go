package router

import (
	"fmt"

	"repro/internal/eib"
	"repro/internal/invariant"
	"repro/internal/linecard"
)

// This file wires the runtime invariant wall into the router: structural
// checks swept from the kernel's after-step hook (the model is quiescent
// between events) plus inline checks at the two hot-path funnel points
// (delivery accounting, repair monotonicity). All checks are read-only
// and report through invariant.Checker — they never panic, so chaos
// campaigns keep running through a defect and record exactly what broke.

// AttachInvariants registers the router's invariant catalog with c and
// installs the sweep on the simulation kernel. A nil checker detaches
// (the hot-path hooks degrade to one nil branch each). The catalog:
//
//	lp-unique            — every open LP has a distinct initiator; an LC
//	                       never holds two data-line paths at once
//	ctr-agreement        — the distributed round-robin counters (β,
//	                       rotation) agree across all bus controllers,
//	                       tracked by a shadow arbiter mirroring LP churn
//	binding-lp           — every coverage binding's LP is live on the
//	                       bus with matching endpoints, and every LP
//	                       belongs to a binding (no orphan reservations)
//	coverage-spare       — ΣB_LC promised by a donor never exceeds its
//	                       spare capacity ψ = c − L·c
//	coverage-protocol    — a PDLU-fault binding pairs same-protocol LCs
//	                       with a healthy donor PDLU (paper Case 1)
//	packet-conservation  — every Deliver ends in exactly one of the
//	                       delivered/dropped funnels (inline)
//	repair-monotonic     — a repair action never grows the failed-unit
//	                       count (inline at the repair entry points)
func (r *Router) AttachInvariants(c *invariant.Checker) {
	r.inv = c
	if c == nil {
		r.k.SetAfterStep(nil)
		if r.bus != nil {
			r.bus.OnLP = nil
		}
		return
	}
	c.SetClock(func() float64 { return float64(r.k.Now()) })
	if r.bus != nil {
		lcs := make([]int, len(r.lcs))
		for i := range lcs {
			lcs[i] = i
		}
		arb := eib.NewArbiter(lcs)
		r.shadowArb = arb
		r.bus.OnLP = func(opened bool, lp *eib.LP) {
			if lp.Init < 0 || lp.Init >= len(r.lcs) {
				c.Report("lp-unique", fmt.Sprintf("LP %d has out-of-range initiator LC %d", lp.ID, lp.Init))
				return
			}
			if opened {
				if arb.Counters(lp.Init).ID() != 0 {
					c.Report("lp-unique", fmt.Sprintf("LC %d opened LP %d while already holding a data-line path", lp.Init, lp.ID))
					return
				}
				arb.Establish(lp.Init)
			} else if arb.Counters(lp.Init).ID() != 0 {
				arb.Release(lp.Init)
			}
		}
		c.Register("ctr-agreement", func() string {
			if err := arb.Consistent(); err != nil {
				return err.Error()
			}
			return ""
		})
		c.Register("lp-unique", r.checkLPUnique)
		c.Register("binding-lp", r.checkBindingLP)
		c.Register("coverage-spare", r.checkCoverageSpare)
		c.Register("coverage-protocol", r.checkCoverageProtocol)
	}
	r.k.SetAfterStep(c.Sweep)
}

// checkLPUnique verifies no two open LPs share an initiator.
func (r *Router) checkLPUnique() string {
	seen := make(map[int]int) // initiator → LP id
	for _, lp := range r.bus.LPs() {
		if prev, dup := seen[lp.Init]; dup {
			return fmt.Sprintf("LC %d holds LPs %d and %d simultaneously", lp.Init, prev, lp.ID)
		}
		seen[lp.Init] = lp.ID
	}
	return ""
}

// checkBindingLP verifies bindings and bus LPs agree one-to-one.
func (r *Router) checkBindingLP() string {
	if r.bus.Failed() {
		// All LPs died with the lines; reconcileCoverage clears bindings.
		for i, b := range r.cover {
			if b != nil {
				return fmt.Sprintf("LC %d keeps a binding to LC %d across a bus failure", i, b.peer)
			}
		}
		return ""
	}
	live := make(map[int]*eib.LP)
	for _, lp := range r.bus.LPs() {
		live[lp.ID] = lp
	}
	bound := 0
	for i, b := range r.cover {
		if b == nil || b.lp == nil {
			continue
		}
		bound++
		lp, ok := live[b.lp.ID]
		if !ok {
			return fmt.Sprintf("LC %d's binding references LP %d which is not open on the bus", i, b.lp.ID)
		}
		if lp.Init != i || lp.Rec != b.peer {
			return fmt.Sprintf("LP %d endpoints (%d→%d) disagree with binding (%d→%d)", lp.ID, lp.Init, lp.Rec, i, b.peer)
		}
	}
	if bound != len(live) {
		return fmt.Sprintf("%d open LPs but %d coverage bindings (orphan data-line reservation)", len(live), bound)
	}
	return ""
}

// checkCoverageSpare verifies no donor has promised more bandwidth than
// its spare capacity ψ = c − L·c.
func (r *Router) checkCoverageSpare() string {
	for j := range r.lcs {
		promised := 0.0
		for _, lp := range r.bus.LPs() {
			if lp.Rec == j {
				promised += lp.Asked
			}
		}
		if psi := r.lcs[j].Capacity() - r.offered[j]; promised > psi {
			return fmt.Sprintf("LC %d promised %g over the EIB but has spare ψ=%g", j, promised, psi)
		}
	}
	return ""
}

// checkCoverageProtocol verifies PDLU-fault bindings obey the paper's
// Case 1 rule: the donor speaks the faulty LC's protocol and its own
// PDLU is healthy.
func (r *Router) checkCoverageProtocol() string {
	for i, b := range r.cover {
		if b == nil {
			continue
		}
		lc := r.lcs[i]
		if !lc.Failed(linecard.PDLU) {
			continue
		}
		peer := r.lcs[b.peer]
		if peer.Protocol() != lc.Protocol() {
			return fmt.Sprintf("LC %d (PDLU fault, %v) covered by LC %d speaking %v", i, lc.Protocol(), b.peer, peer.Protocol())
		}
		if !peer.Healthy(linecard.PDLU) {
			return fmt.Sprintf("LC %d (PDLU fault) covered by LC %d whose own PDLU is down", i, b.peer)
		}
	}
	return ""
}

// conservation is the inline delivery-funnel check: every Deliver call
// must end in exactly one of the delivered/dropped funnels.
func (r *Router) conservation() {
	if r.inv != nil && r.attempts != r.completed {
		r.inv.Report("packet-conservation",
			fmt.Sprintf("%d Deliver calls but %d funnel completions", r.attempts, r.completed))
	}
}

// repairMonotonic is the inline repair check: after must not exceed
// before (a repair action never grows the failed-unit count).
func (r *Router) repairMonotonic(action string, before, after int) {
	if r.inv != nil && after > before {
		r.inv.Report("repair-monotonic",
			fmt.Sprintf("%s grew failed units %d → %d", action, before, after))
	}
}

// failedUnits counts failed components across all LCs plus the EIB
// lines plus failed topology units — the fault-state magnitude the
// repair-monotonicity check watches.
func (r *Router) failedUnits() int {
	n := r.topo.FailedUnits()
	for _, lc := range r.lcs {
		n += len(lc.FailedComponents())
	}
	if r.bus != nil && r.bus.Failed() {
		n++
	}
	return n
}
