package router

import (
	"repro/internal/linecard"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
)

// PathKind labels how a packet traversed the router.
type PathKind uint8

// The delivery paths of the paper's Section 3.2.
const (
	// PathFabric is the fault-free path: ingress LC → fabric → egress LC.
	PathFabric PathKind = iota
	// PathIngressCover used a covering LC for the ingress PDLU or SRU
	// (Case 2): PIU/PDLU → EIB → peer → fabric → egress.
	PathIngressCover
	// PathEgressDirect is Case 3's same-protocol shortcut: the ingress
	// LC's PDLU sends packets over the EIB directly to the egress PIU.
	PathEgressDirect
	// PathEgressInter is Case 3 with an intermediate LC: cells cross the
	// fabric to LC_inter, whose PDLU forwards reassembled packets over
	// the EIB to the egress PIU.
	PathEgressInter
	// PathEgressSRUCover is Case 3 for a failed egress SRU: the ingress
	// LC sends the whole packet over the EIB to the egress PDLU.
	PathEgressSRUCover
	// PathEIBFallback carried the packet over the EIB because the fabric
	// (or a fabric port) was down.
	PathEIBFallback
	// PathDropped means the packet was lost.
	PathDropped
)

// String implements fmt.Stringer.
func (p PathKind) String() string {
	switch p {
	case PathFabric:
		return "fabric"
	case PathIngressCover:
		return "ingress-cover"
	case PathEgressDirect:
		return "egress-direct"
	case PathEgressInter:
		return "egress-inter"
	case PathEgressSRUCover:
		return "egress-sru-cover"
	case PathEIBFallback:
		return "eib-fallback"
	case PathDropped:
		return "dropped"
	default:
		return "unknown"
	}
}

// PathReport describes how one packet was handled.
type PathReport struct {
	Kind PathKind
	// IngressVia / EgressVia are covering LCs used on each side (-1 when
	// unused).
	IngressVia int
	EgressVia  int
	// RemoteLookup is the LC whose LFE answered the lookup (-1 for a
	// local lookup).
	RemoteLookup int
	// Cells is the number of fabric cells the packet was segmented into
	// (0 when the packet never crossed the fabric).
	Cells int
	// Latency is the modelled end-to-end delay of a delivered packet in
	// the router's time unit (0 for drops). See latency.go.
	Latency float64
	// DropReason is non-empty when Kind == PathDropped.
	DropReason string
}

// Deliver pushes one packet through the router under the current fault
// state, updating all counters, and returns the path taken. The packet's
// DstLC is resolved by lookup as a side effect.
func (r *Router) Deliver(p *packet.Packet) PathReport {
	packet.AssertLive(p)
	r.attempts++
	in := p.SrcLC
	if in < 0 || in >= len(r.lcs) {
		rep := PathReport{Kind: PathDropped, DropReason: "bad ingress LC"}
		r.m.drop(rep.DropReason)
		r.im.drops.With(rep.DropReason).Inc()
		r.completed++
		r.conservation()
		return rep
	}
	rep := PathReport{IngressVia: -1, EgressVia: -1, RemoteLookup: -1}
	inLC := r.lcs[in]

	// Ingress PIU: not coverable (the link terminates there).
	if !inLC.Healthy(linecard.PIU) {
		return r.dropped(&rep, "ingress PIU failed")
	}
	// Ingress port: an individual link cut is likewise uncoverable.
	if p.SrcPort >= 0 && p.SrcPort < inLC.Ports() && !inLC.PortUp(p.SrcPort) {
		return r.dropped(&rep, "ingress port down")
	}

	// Step 1: the lookup. Local LFE if healthy; otherwise a remote LFE
	// over the control lines (REQ_L/REP_L).
	dst, lrep, reason := r.resolve(in, p.DstIP)
	if reason != "" {
		return r.dropped(&rep, reason)
	}
	rep.RemoteLookup = lrep
	if lrep >= 0 {
		r.m.RemoteLookups++
		r.im.remoteLookups.Inc()
	}
	p.DstLC = dst
	out := dst
	outLC := r.lcs[out]

	// Hairpin: same-LC traffic never leaves the card.
	if out == in {
		if !inLC.LocalEgressPath() {
			return r.dropped(&rep, "hairpin egress path failed")
		}
		return r.delivered(&rep, PathFabric, out, p)
	}

	// Step 2: the ingress data path (Case 2).
	ingressNeedsCover := inLC.Failed(linecard.PDLU) || inLC.Failed(linecard.SRU)
	fromLC := in // the LC that will inject cells into the fabric
	if ingressNeedsCover {
		b := r.cover[in]
		if r.bus == nil || b == nil || r.bus.Failed() || !inLC.OnEIB() ||
			!r.topo.Connected(topology.PlaneSpare, in, b.peer) {
			return r.dropped(&rep, "ingress fault uncovered")
		}
		rep.IngressVia = b.peer
		fromLC = b.peer
		r.m.ViaEIB++
		r.im.detours.Inc()
	}

	// Step 3: egress constraints (Case 3) decide the downstream path.
	switch {
	case !outLC.Healthy(linecard.PIU):
		return r.dropped(&rep, "egress PIU failed")

	case outLC.LocalEgressPath():
		// Plain fabric path from fromLC to out.
		return r.viaFabric(&rep, p, fromLC, out, pickKind(rep, PathFabric))

	case r.cfg.Arch != linecard.DRA || r.bus == nil || r.bus.Failed() || !outLC.OnEIB() ||
		!r.topo.Up(topology.PlaneSpare, out):
		return r.dropped(&rep, "egress fault uncovered")

	case outLC.Failed(linecard.PDLU):
		// Case 3, PDLU: same-protocol ingress goes EIB-direct (when the
		// spare plane links the pair); otherwise find an intermediate LC
		// of the egress protocol.
		srcForDirect := r.lcs[fromLC]
		if srcForDirect.Protocol() == outLC.Protocol() && srcForDirect.Healthy(linecard.PDLU) &&
			r.topo.Connected(topology.PlaneSpare, fromLC, out) {
			r.m.ViaEIB++
			r.im.detours.Inc()
			return r.delivered(&rep, pickKind(rep, PathEgressDirect), out, p)
		}
		inter := r.pickInter(outLC.Protocol(), out, fromLC)
		if inter < 0 {
			return r.dropped(&rep, "no intermediate LC for egress PDLU")
		}
		rep.EgressVia = inter
		// Cells cross the fabric to inter, then the EIB to out.
		rep2 := r.viaFabric(&rep, p, fromLC, inter, pickKind(rep, PathEgressInter))
		if rep2.Kind != PathDropped {
			r.m.ViaEIB++
			r.im.detours.Inc()
			// The packet exits through the faulty egress card, not the
			// intermediate: move the per-LC delivery credit.
			r.lcs[inter].Delivered--
			r.lcs[out].Delivered++
		}
		return rep2

	case outLC.Failed(linecard.SRU):
		// Case 3, SRU: the sender keeps the packet whole and ships it
		// over the EIB to the egress PDLU. The sender's SRU must be
		// healthy to have produced the reassembled stream, and the spare
		// plane must link the pair.
		if !r.lcs[fromLC].Healthy(linecard.SRU) {
			return r.dropped(&rep, "no healthy SRU on sending side")
		}
		if !r.topo.Connected(topology.PlaneSpare, fromLC, out) {
			return r.dropped(&rep, "spare plane severed")
		}
		r.m.ViaEIB++
		r.im.detours.Inc()
		return r.delivered(&rep, pickKind(rep, PathEgressSRUCover), out, p)

	default:
		return r.dropped(&rep, "egress fault uncovered")
	}
}

// pickKind keeps the most specific path label when ingress coverage was
// already involved.
func pickKind(rep PathReport, kind PathKind) PathKind {
	if rep.IngressVia >= 0 && kind == PathFabric {
		return PathIngressCover
	}
	return kind
}

// resolve performs the lookup step: local LFE, or remote coverage.
func (r *Router) resolve(in int, addr uint32) (dst int, remoteVia int, dropReason string) {
	inLC := r.lcs[in]
	if inLC.Healthy(linecard.LFE) {
		d, err := inLC.Lookup(addr)
		if err != nil {
			return 0, -1, "no route"
		}
		return d, -1, ""
	}
	if r.cfg.Arch != linecard.DRA || r.bus == nil || r.bus.Failed() || !inLC.OnEIB() {
		return 0, -1, "LFE failed, no lookup coverage"
	}
	// Synchronous model of the REQ_L/REP_L exchange: the first healthy
	// spare-plane-reachable peer LFE answers. Control packets are
	// accounted on the bus.
	for j, peer := range r.lcs {
		if j == in || !peer.CanCoverLookup() || !r.policy.Covers(r.topo, in, j) {
			continue
		}
		d, err := peer.Lookup(addr)
		if err != nil {
			continue
		}
		peer.LookupsServedForPeers++
		return d, j, ""
	}
	return 0, -1, "LFE failed, no lookup coverage"
}

// pickInter chooses an intermediate LC for Case 3 PDLU coverage: it must
// speak the egress protocol, have healthy PDLU/SRU and bus controller,
// be data-plane-reachable from the sender (the fabric leg) and spare-
// plane-connected to the faulty egress (the EIB leg), and not be the
// faulty or sending LC. The lowest qualified index wins — deterministic,
// standing in for the first REP_D winner.
func (r *Router) pickInter(proto packet.Protocol, faulty, sender int) int {
	for j, lc := range r.lcs {
		if j == faulty || j == sender {
			continue
		}
		if lc.CanCoverPDLU(proto) && lc.Healthy(linecard.SRU) &&
			r.topo.Connected(topology.PlaneData, sender, j) &&
			r.topo.Connected(topology.PlaneSpare, j, faulty) {
			return j
		}
	}
	return -1
}

// viaFabric segments the packet and runs its cells across the fabric from
// src to dst, reassembling at the destination. If the fabric refuses (dead
// card or port) or the topology's data plane is severed between the two,
// DRA falls back to the EIB data lines.
func (r *Router) viaFabric(rep *PathReport, p *packet.Packet, src, dst int, kind PathKind) PathReport {
	if !r.topo.Connected(topology.PlaneData, src, dst) {
		// The interconnect itself is partitioned; no cell ever reaches the
		// fabric. DRA detours over the spare plane when it links the pair.
		if r.eibReaches(src, dst) {
			r.m.ViaEIB++
			r.im.detours.Inc()
			return r.delivered(rep, PathEIBFallback, dst, p)
		}
		return r.dropped(rep, "data plane severed")
	}
	tmp := *p
	tmp.SrcLC = src
	tmp.DstLC = dst
	r.cellBuf = packet.SegmentAppend(r.cellBuf[:0], &tmp)
	cells := r.cellBuf
	rep.Cells = len(cells)
	for _, c := range cells {
		if _, err := r.fab.Transfer(c); err != nil {
			// Case 1 failure beyond redundancy, or a dead fabric port:
			// DRA reroutes over the EIB; BDR loses the packet.
			r.reasm[dst].Abort(c.PacketID)
			if r.eibReaches(src, dst) {
				r.m.ViaEIB++
				r.im.detours.Inc()
				return r.delivered(rep, PathEIBFallback, dst, p)
			}
			return r.dropped(rep, "fabric transfer failed")
		}
		done, err := r.reasm[dst].Add(c)
		if err != nil {
			return r.dropped(rep, "reassembly error")
		}
		if c.Last && done == nil {
			return r.dropped(rep, "reassembly incomplete")
		}
	}
	return r.delivered(rep, kind, dst, p)
}

// eibReaches reports whether the EIB data lines can carry a detour from
// src to dst: DRA, healthy lines, both controllers attached, and the
// topology's spare plane connecting the pair.
func (r *Router) eibReaches(src, dst int) bool {
	return r.cfg.Arch == linecard.DRA && r.bus != nil && !r.bus.Failed() &&
		r.lcs[src].OnEIB() && r.lcs[dst].OnEIB() &&
		r.topo.Connected(topology.PlaneSpare, src, dst)
}

func (r *Router) delivered(rep *PathReport, kind PathKind, egress int, p *packet.Packet) PathReport {
	rep.Kind = kind
	rep.Latency = r.pathLatency(rep, p)
	p.Delivered = p.Arrived + rep.Latency
	r.m.Delivered++
	r.m.LatencySum += rep.Latency
	r.im.delivered.Inc()
	r.im.latency.Observe(rep.Latency)
	if kind == PathFabric {
		r.m.ViaFabric++
		r.im.viaFabric.Inc()
	}
	r.lcs[egress].Delivered++
	r.completed++
	r.conservation()
	return *rep
}

func (r *Router) dropped(rep *PathReport, reason string) PathReport {
	rep.Kind = PathDropped
	rep.DropReason = reason
	r.m.drop(reason)
	r.im.drops.With(reason).Inc()
	r.tr.Record(trace.Event{At: float64(r.k.Now()), Kind: trace.Drop, LC: -1, Peer: -1, Reason: reason})
	r.completed++
	r.conservation()
	return *rep
}
