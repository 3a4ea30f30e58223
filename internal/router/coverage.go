package router

import (
	"repro/internal/eib"
	"repro/internal/linecard"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
)

// This file implements the DRA coverage logic: the pure service predicate
// used by dependability analysis, and the event-driven establishment and
// release of EIB coverage bindings that the packet path consumes.

// CanDeliver reports whether LC i can currently provide packet delivery
// service — the definition of "operational" in the paper's Markov models.
//
// Under BDR any component failure takes the LC down. Under DRA:
//
//   - a PIU failure is not coverable (the external link terminates there);
//   - the data plane must reach the LC (fabric operational, port up, and
//     the topology's data plane attaching it to at least one peer) or the
//     EIB must be able to carry the LC's traffic;
//   - a PDLU failure needs a healthy same-protocol PDLU on a spare-plane-
//     reachable peer;
//   - an SRU failure needs a healthy PI path on such a peer;
//   - an LFE failure needs any healthy LFE on such a peer;
//   - all coverage runs over the EIB, so the EIB lines, LC i's own bus
//     controller, and the topology's spare plane must connect whenever
//     coverage is needed.
//
// On the bus topology every plane query is constant-true, so the
// predicate reduces exactly to the paper's bus-specific checks.
func (r *Router) CanDeliver(i int) bool {
	lc := r.lcs[i]
	if !lc.Healthy(linecard.PIU) {
		return false
	}
	intact := lc.LocalIngressPath() && lc.LocalEgressPath()
	dataUp := r.fab.Operational() && r.fab.PortUp(i) && r.topo.Up(topology.PlaneData, i)
	if r.cfg.Arch == linecard.BDR {
		return intact && dataUp
	}
	if intact && dataUp {
		return true
	}
	// Coverage is needed: EIB lines, own bus controller, and the spare
	// plane's attachment must all work.
	if r.bus.Failed() || !lc.OnEIB() || !r.topo.Up(topology.PlaneSpare, i) {
		return false
	}
	if lc.Failed(linecard.PDLU) && !r.existsPeer(i, func(p *linecard.LC) bool {
		return p.CanCoverPDLU(lc.Protocol()) && r.policy.Covers(r.topo, i, p.ID())
	}) {
		return false
	}
	if lc.Failed(linecard.SRU) && !r.existsPeer(i, func(p *linecard.LC) bool {
		return p.CanCoverPI() && r.policy.Covers(r.topo, i, p.ID())
	}) {
		return false
	}
	if lc.Failed(linecard.LFE) && !r.existsPeer(i, func(p *linecard.LC) bool {
		return p.CanCoverLookup() && r.policy.Covers(r.topo, i, p.ID())
	}) {
		return false
	}
	// Fabric-side faults (dead port, dead fabric, severed data plane) are
	// absorbed by the EIB data lines as long as the LC is on the bus and
	// the spare plane reaches it, which was checked above.
	return true
}

// deliverEntry memoizes one LC's CanDeliver verdict against the fault
// state it was computed under.
type deliverEntry struct {
	router uint64
	fabric uint64
	bus    uint64
	topo   uint64
	valid  bool
	up     bool
}

// CanDeliverCached is CanDeliver behind a fault-state memo: the verdict is
// recomputed only when the router's coverage state, the fabric, the bus,
// or the topology graph has changed since the last call. Monte-Carlo
// loops poll the predicate after every kernel event, almost all of which
// leave the fault state untouched; the memo turns those polls into four
// integer compares.
//
// The cache is sound as long as fault state is mutated through the Router,
// Fabric, and Bus entry points (FailComponent, FailCard, Fail,
// FailTopoUnit, ...), which is true for the injector and the chaos
// engine. Code that pokes linecard component state directly must use
// CanDeliver.
func (r *Router) CanDeliverCached(i int) bool {
	if r.deliverCache == nil {
		r.deliverCache = make([]deliverEntry, len(r.lcs))
	}
	var busVer uint64
	if r.bus != nil {
		busVer = r.bus.Version()
	}
	e := &r.deliverCache[i]
	if e.valid && e.router == r.faultVer && e.fabric == r.fab.Version() && e.bus == busVer && e.topo == r.topo.Version() {
		return e.up
	}
	up := r.CanDeliver(i)
	*e = deliverEntry{router: r.faultVer, fabric: r.fab.Version(), bus: busVer, topo: r.topo.Version(), valid: true, up: up}
	return up
}

// existsPeer reports whether any other LC satisfies the predicate.
func (r *Router) existsPeer(self int, ok func(*linecard.LC) bool) bool {
	for j, p := range r.lcs {
		if j != self && ok(p) {
			return true
		}
	}
	return false
}

// --- Fault and repair entry points ---

// FailComponent marks component c of LC i failed and reconciles coverage
// bindings. Under DRA a BusController failure detaches the LC's bus
// controller.
func (r *Router) FailComponent(i int, c linecard.Component) {
	lc := r.lcs[i]
	if lc.Failed(c) {
		return
	}
	lc.Fail(c)
	r.tr.Record(trace.Event{At: float64(r.k.Now()), Kind: trace.Fault, LC: i, Peer: -1, Detail: c.String()})
	if c == linecard.BusController && r.ctrl != nil {
		r.ctrl[i].Detach()
	}
	r.reconcileCoverage()
}

// RepairComponent restores component c of LC i.
func (r *Router) RepairComponent(i int, c linecard.Component) {
	lc := r.lcs[i]
	if !lc.Failed(c) {
		return
	}
	before := 0
	if r.inv != nil {
		before = r.failedUnits()
	}
	lc.Repair(c)
	if r.inv != nil {
		r.repairMonotonic("RepairComponent", before, r.failedUnits())
	}
	r.tr.Record(trace.Event{At: float64(r.k.Now()), Kind: trace.Repair, LC: i, Peer: -1, Detail: c.String()})
	if c == linecard.BusController && r.ctrl != nil {
		r.ctrl[i].Reattach()
	}
	r.reconcileCoverage()
}

// RepairLC restores every component of LC i — the paper's repair process
// replaces all failed units in one action.
func (r *Router) RepairLC(i int) {
	lc := r.lcs[i]
	wasBC := lc.Failed(linecard.BusController)
	before := 0
	if r.inv != nil {
		before = r.failedUnits()
	}
	lc.RepairAll()
	if r.inv != nil {
		r.repairMonotonic("RepairLC", before, r.failedUnits())
	}
	r.tr.Record(trace.Event{At: float64(r.k.Now()), Kind: trace.Repair, LC: i, Peer: -1, Detail: "all"})
	if wasBC && r.ctrl != nil {
		r.ctrl[i].Reattach()
	}
	r.reconcileCoverage()
}

// FailBus cuts the EIB lines.
func (r *Router) FailBus() {
	if r.bus == nil || r.bus.Failed() {
		return
	}
	r.bus.Fail()
	r.tr.Record(trace.Event{At: float64(r.k.Now()), Kind: trace.BusDown, LC: -1, Peer: -1})
	// All LPs died with the bus.
	for i := range r.cover {
		r.cover[i] = nil
	}
	r.reconcileCoverage()
}

// FailTopoUnit marks topology unit u (an interconnect node or link)
// failed and reconciles coverage: bindings whose spare-plane path died
// with the unit are released, and data-plane reachability changes flow
// into the CanDeliver verdicts through the graph version. The bus
// topology has no units, so this is reachable only on the richer kinds.
func (r *Router) FailTopoUnit(u int) {
	if !r.topo.FailUnit(u) {
		return
	}
	r.tr.Record(trace.Event{At: float64(r.k.Now()), Kind: trace.Fault, LC: -1, Peer: -1, Detail: r.topo.UnitName(u)})
	r.reconcileCoverage()
}

// RepairTopoUnit restores topology unit u.
func (r *Router) RepairTopoUnit(u int) {
	if r.topo.UnitFailed(u) {
		before := 0
		if r.inv != nil {
			before = r.failedUnits()
		}
		r.topo.RepairUnit(u)
		if r.inv != nil {
			r.repairMonotonic("RepairTopoUnit", before, r.failedUnits())
		}
		r.tr.Record(trace.Event{At: float64(r.k.Now()), Kind: trace.Repair, LC: -1, Peer: -1, Detail: r.topo.UnitName(u)})
		r.reconcileCoverage()
	}
}

// RepairBus restores the EIB lines and re-establishes coverage.
func (r *Router) RepairBus() {
	if r.bus == nil || !r.bus.Failed() {
		return
	}
	before := 0
	if r.inv != nil {
		before = r.failedUnits()
	}
	r.bus.Repair()
	if r.inv != nil {
		r.repairMonotonic("RepairBus", before, r.failedUnits())
	}
	r.tr.Record(trace.Event{At: float64(r.k.Now()), Kind: trace.BusUp, LC: -1, Peer: -1})
	r.reconcileCoverage()
}

// reconcileCoverage releases bindings that are no longer valid or needed
// and starts EIB handshakes for LCs that need new coverage. Handshakes
// complete after control-line delays; callers running the kernel observe
// bindings appearing shortly after the fault event, exactly as a real DRA
// would converge.
func (r *Router) reconcileCoverage() {
	r.faultVer++
	if r.cfg.Arch != linecard.DRA {
		return
	}
	for i := range r.lcs {
		need, comp, rate := r.coverageNeed(i)
		b := r.cover[i]
		if b != nil {
			valid := need && !r.bus.Failed() && r.lcs[i].OnEIB() &&
				r.qualifiesHealth(b.peer, i, comp, r.lcs[i].Protocol())
			if !valid {
				if b.lp != nil && !r.bus.Failed() {
					r.ctrl[i].Release(b.lp)
				}
				r.cover[i] = nil
				r.im.coverageRevocations.Inc()
				r.tr.Record(trace.Event{At: float64(r.k.Now()), Kind: trace.CoverageDown, LC: i, Peer: b.peer})
			}
		}
		if need && r.cover[i] == nil && !r.bus.Failed() && r.lcs[i].OnEIB() &&
			r.topo.Up(topology.PlaneSpare, i) {
			r.requestCoverage(i, comp, rate, 0)
		}
	}
	r.updateCoverageGauge()
}

// updateCoverageGauge refreshes router_coverage_bandwidth from the fluid
// Section 5.3 computation: the sum of CoverageBandwidth().PerFaulty, in
// LC order and without allocating. It runs only on fault-state
// transitions (never the packet hot path) and only when a registry is
// attached.
func (r *Router) updateCoverageGauge() {
	if r.im.coverageBW == nil {
		return
	}
	total := 0.0
	if scale, _, _, served := r.coverageScale(); served {
		for i, lc := range r.lcs {
			if !lc.FullyHealthy() {
				total += r.coveredBandwidth(i, scale)
			}
		}
	}
	r.im.coverageBW.Set(total)
}

// qualifiesHealth re-checks an existing binding peer's health and spare-
// plane reachability (without the capacity check — an established LP
// keeps its reservation).
func (r *Router) qualifiesHealth(peer, faulty int, comp linecard.Component, proto packet.Protocol) bool {
	if !r.policy.Covers(r.topo, faulty, peer) {
		return false
	}
	lc := r.lcs[peer]
	switch comp {
	case linecard.PDLU:
		return lc.CanCoverPDLU(proto)
	case linecard.SRU, linecard.LFE:
		return lc.CanCoverPI()
	default:
		return false
	}
}

// coverageNeed decides whether LC i needs a data-coverage binding, and for
// which failed component class. PDLU failures dominate (they constrain the
// peer choice the most); pure LFE failures are served per-lookup over the
// control lines and need no data binding.
func (r *Router) coverageNeed(i int) (need bool, comp linecard.Component, rate float64) {
	lc := r.lcs[i]
	if !lc.Healthy(linecard.PIU) {
		return false, 0, 0 // not coverable at all
	}
	rate = r.offered[i]
	if rate <= 0 {
		// A faulty LC still requests coverage for control traffic; use a
		// nominal 1% of capacity so LP bookkeeping stays meaningful.
		rate = lc.Capacity() * 0.01
	}
	switch {
	case lc.Failed(linecard.PDLU):
		return true, linecard.PDLU, rate
	case lc.Failed(linecard.SRU):
		return true, linecard.SRU, rate
	default:
		return false, 0, 0
	}
}

// requestCoverage runs the REQ_D/REP_D handshake for LC i and installs the
// binding (with an LP over the data lines) when a peer accepts. A failed
// handshake retries a bounded number of times while a qualified peer still
// exists — covering the race where the first REQ_D fired while the only
// candidate was mid-repair or busy with its own exchange.
func (r *Router) requestCoverage(i int, comp linecard.Component, rate float64, tries int) {
	lc := r.lcs[i]
	req := eib.ControlPacket{
		Rec:             eib.Broadcast,
		Direction:       eib.Forward,
		DataRate:        rate,
		Proto:           lc.Protocol(),
		FaultyComponent: comp,
	}
	r.m.CoverageRequests++
	r.im.coverageRequests.Inc()
	r.ctrl[i].RequestData(req, func(peer int) {
		// A fault may have landed while the handshake was in flight;
		// re-validate before committing. The capacity check must repeat
		// too: the donor admitted at REQ_D time, but a concurrent
		// handshake may have committed an LP against the same spare
		// capacity since — without this, two in-flight REQ_Ds can
		// oversubscribe ψ.
		if r.bus.Failed() || !r.qualifiesHealth(peer, i, comp, lc.Protocol()) || r.spare(peer) < rate {
			return
		}
		if r.cover[i] != nil {
			return // coverage raced; keep the first binding
		}
		lp, err := r.bus.OpenLP(i, peer, rate, eib.Forward)
		if err != nil {
			return
		}
		r.cover[i] = &binding{peer: peer, lp: lp}
		r.m.CoverageEstablished++
		r.im.coverageGrants.Inc()
		r.tr.Record(trace.Event{At: float64(r.k.Now()), Kind: trace.CoverageUp, LC: i, Peer: peer})
		r.updateCoverageGauge()
	}, func(error) {
		r.m.CoverageFailed++
		r.im.coverageFailed.Inc()
		if tries >= 4 || r.bus.Failed() || !lc.OnEIB() {
			return
		}
		if !r.existsPeer(i, func(p *linecard.LC) bool {
			return r.qualifiesHealth(p.ID(), i, comp, lc.Protocol())
		}) {
			return
		}
		r.k.After(1e-6, func() {
			if need, c2, rt2 := r.coverageNeed(i); need && c2 == comp && r.cover[i] == nil {
				r.requestCoverage(i, comp, rt2, tries+1)
			}
		})
	})
}

// CoverPeer returns the LC currently covering LC i's data path, or -1.
func (r *Router) CoverPeer(i int) int {
	if b := r.cover[i]; b != nil {
		return b.peer
	}
	return -1
}
