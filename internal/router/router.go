// Package router assembles the full executable router model: linecards,
// the redundant switching fabric, the route processor, and — under DRA —
// the enhanced internal bus with one bus controller per linecard. It
// implements the complete fault model of the paper's Section 3.2 (Cases
// 1–3), the coverage orchestration over the EIB, component fault injection
// with repair, and per-packet delivery with path accounting.
//
// The same router object serves three uses:
//
//   - packet mode: Deliver pushes individual packets along the exact path
//     the architecture dictates (fabric, EIB detour, remote lookup, ...);
//   - dependability mode: CanDeliver is the pure predicate "is this LC's
//     packet service up under the current fault state", sampled by the
//     Monte-Carlo reliability/availability estimator;
//   - fluid mode: CoverageBandwidth computes the bandwidth available to
//     faulty LCs under the EIB's promise formula, cross-checking the
//     paper's Section 5.3 analysis.
package router

import (
	"fmt"
	"strconv"

	"repro/internal/eib"
	"repro/internal/fabric"
	"repro/internal/forwarding"
	"repro/internal/invariant"
	"repro/internal/linecard"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Config describes a router instance.
type Config struct {
	Arch linecard.Arch
	// Protocols gives one entry per linecard; its length is the LC count
	// (the paper's N). The number of LCs sharing LC 0's protocol is the
	// paper's M.
	Protocols []packet.Protocol
	// PortsPerLC is the external port count per LC.
	PortsPerLC int
	// LCCapacity is c_LC in bits per time unit (the paper uses 10 Gbps).
	LCCapacity float64
	// Fabric configures the switching fabric; zero value selects
	// fabric.DefaultConfig.
	Fabric fabric.Config
	// Bus configures the EIB (DRA only); zero value selects
	// eib.DefaultBusConfig.
	Bus eib.BusConfig
	// Topology selects the interconnect graph the fabric and EIB are
	// structured over; the zero value is the paper's bus (both planes
	// perfect chassis-wide hubs, no interior failure modes).
	Topology topology.Spec
	// Policy decides which peers may extend spare-channel coverage over
	// the topology's spare plane; nil selects topology.DefaultPolicy.
	Policy topology.SparePolicy
	// Seed drives all stochastic behaviour (CSMA/CD backoff, fault
	// injection).
	Seed uint64
	// Source, when non-nil, supplies the router's RNG directly and Seed is
	// ignored. The Monte-Carlo engine uses this to hand each replication a
	// Jump-spaced stream from one master sequence.
	Source *xrand.Source
}

// UniformConfig is a convenience constructor for the paper's standard
// setup: N linecards of which the first M share protocol 0 and the rest
// cycle through other protocols, 10 Gbps capacity each.
func UniformConfig(arch linecard.Arch, n, m int) Config {
	if n < 2 {
		panic("router: need at least two LCs")
	}
	if m < 1 || m > n {
		panic("router: M must be within [1, N]")
	}
	protos := make([]packet.Protocol, n)
	for i := range protos {
		if i < m {
			protos[i] = packet.ProtoEthernet
		} else {
			// Spread the remaining LCs over the other protocols.
			protos[i] = packet.Protocol(1 + (i-m)%(packet.NumProtocols-1))
		}
	}
	return Config{
		Arch:       arch,
		Protocols:  protos,
		PortsPerLC: 4,
		LCCapacity: 10e9,
		Seed:       1,
	}
}

// Router is the executable router model.
type Router struct {
	cfg  Config
	k    *sim.Kernel
	rng  *xrand.Source
	lcs  []*linecard.LC
	fab  *fabric.Fabric
	rp   *forwarding.RouteProcessor
	bus  *eib.Bus          // nil under BDR
	ctrl []*eib.Controller // nil under BDR

	// topo is the interconnect graph both planes' reachability questions
	// are answered against; policy is the spare-channeling rule over its
	// spare plane. Never nil.
	topo   *topology.Graph
	policy topology.SparePolicy

	// cover[i] is the established data-coverage binding for LC i, nil
	// when LC i needs no coverage or none could be established.
	cover []*binding

	// offered[i] is the configured offered load of LC i in bits per time
	// unit, used by the coverage capacity checks (ψ = c − L·c).
	offered []float64

	reasm []*packet.Reassembler

	// cellBuf is the scratch segmentation buffer reused by viaFabric, so
	// the steady-state fabric path allocates nothing.
	cellBuf []packet.Cell

	// faultVer counts coverage reconciliations; together with the fabric
	// and bus versions it keys the CanDeliverCached memo (deliverCache).
	faultVer     uint64
	deliverCache []deliverEntry

	tr *trace.Recorder // nil unless SetTracer was called

	// inv is the runtime invariant wall (nil = disabled; every hook is
	// one branch). shadowArb mirrors LP churn for the counter-agreement
	// check. attempts/completed are the delivery-funnel conservation
	// counters.
	inv       *invariant.Checker
	shadowArb *eib.Arbiter
	attempts  uint64
	completed uint64

	m  Metrics
	im instruments
}

// instruments holds the router's resolved registry instruments. The
// zero value (all nil) is fully functional and nearly free: every hook
// on the packet hot path degrades to a nil-receiver branch, the same
// discipline as trace.Recorder.
type instruments struct {
	delivered     *metrics.Counter
	detours       *metrics.Counter // packets that used the EIB data lines
	viaFabric     *metrics.Counter
	remoteLookups *metrics.Counter
	latency       *metrics.Histogram

	drops   *metrics.CounterVec // by reason
	lcDrops *metrics.CounterVec // by ingress LC and reason (DeliverFrom)

	coverageRequests    *metrics.Counter
	coverageGrants      *metrics.Counter
	coverageRevocations *metrics.Counter
	coverageFailed      *metrics.Counter
	coverageBW          *metrics.Gauge

	// lcLabel caches per-LC label strings so the drop path does not
	// format integers.
	lcLabel []string
}

// SetMetrics resolves the router's instruments against reg and cascades
// to the layers it owns: the sim kernel and, under DRA, the EIB. The
// router-level families:
//
//	router_delivered_total / router_drops_total{reason}
//	router_lc_drops_total{lc,reason}   (ingress attribution, DeliverFrom)
//	router_detours_total               (packets using the EIB data lines)
//	router_via_fabric_total
//	router_remote_lookups_total
//	router_latency_seconds             (modelled delivery latency)
//	router_coverage_requests_total / router_coverage_grants_total /
//	router_coverage_revocations_total / router_coverage_failed_total
//	router_coverage_bandwidth          (ΣB_faulty over the EIB, bits/unit)
//
// A nil registry detaches nothing and is a no-op.
func (r *Router) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	r.k.Instrument(reg)
	if r.bus != nil {
		r.bus.SetMetrics(reg)
	}
	im := &r.im
	im.delivered = reg.Counter("router_delivered_total", "Packets delivered end to end.")
	im.detours = reg.Counter("router_detours_total", "Packets that used the EIB data lines at least once.")
	im.viaFabric = reg.Counter("router_via_fabric_total", "Packets whose data path used only the fabric.")
	im.remoteLookups = reg.Counter("router_remote_lookups_total", "Lookups served by a peer LFE over the control lines.")
	im.latency = reg.Histogram("router_latency_seconds", "Modelled end-to-end delivery latency.",
		metrics.ExpBuckets(1e-6, 4, 12))
	im.drops = reg.CounterVec("router_drops_total", "Packets dropped, by cause.", "reason")
	im.lcDrops = reg.CounterVec("router_lc_drops_total", "Packets dropped, by ingress linecard and cause.", "lc", "reason")
	im.coverageRequests = reg.Counter("router_coverage_requests_total", "REQ_D coverage handshakes started.")
	im.coverageGrants = reg.Counter("router_coverage_grants_total", "Coverage bindings established over the EIB.")
	im.coverageRevocations = reg.Counter("router_coverage_revocations_total", "Coverage bindings released or invalidated.")
	im.coverageFailed = reg.Counter("router_coverage_failed_total", "Coverage handshakes that found no peer.")
	im.coverageBW = reg.Gauge("router_coverage_bandwidth", "Total bandwidth faulty LCs currently receive over the EIB.")
	im.lcLabel = make([]string, len(r.lcs))
	for i := range im.lcLabel {
		im.lcLabel[i] = strconv.Itoa(i)
	}
}

// binding records an established EIB coverage relationship.
type binding struct {
	peer int
	lp   *eib.LP
}

// New builds a router from the configuration.
func New(cfg Config) (*Router, error) {
	n := len(cfg.Protocols)
	if n < 2 {
		return nil, fmt.Errorf("router: need at least two linecards, got %d", n)
	}
	if cfg.PortsPerLC <= 0 {
		cfg.PortsPerLC = 4
	}
	if cfg.LCCapacity <= 0 {
		cfg.LCCapacity = 10e9
	}
	if cfg.Fabric.Ports == 0 {
		cfg.Fabric = fabric.DefaultConfig(n)
	}
	if cfg.Fabric.Ports != n {
		return nil, fmt.Errorf("router: fabric has %d ports for %d LCs", cfg.Fabric.Ports, n)
	}
	def := eib.DefaultBusConfig()
	if cfg.Bus.DataCapacity == 0 {
		cfg.Bus.DataCapacity = def.DataCapacity
	}
	if cfg.Bus.CtrlSlot == 0 {
		cfg.Bus.CtrlSlot = def.CtrlSlot
	}
	if cfg.Bus.MaxBackoffExp == 0 {
		cfg.Bus.MaxBackoffExp = def.MaxBackoffExp
	}

	topo, err := topology.New(cfg.Topology, n)
	if err != nil {
		return nil, fmt.Errorf("router: topology: %w", err)
	}
	if cfg.Policy == nil {
		cfg.Policy = topology.DefaultPolicy()
	}

	rng := cfg.Source
	if rng == nil {
		rng = xrand.New(cfg.Seed)
	}
	r := &Router{
		cfg:     cfg,
		k:       sim.NewKernel(),
		rng:     rng,
		rp:      forwarding.NewRouteProcessor(),
		topo:    topo,
		policy:  cfg.Policy,
		cover:   make([]*binding, n),
		offered: make([]float64, n),
		reasm:   make([]*packet.Reassembler, n),
	}
	fab, err := fabric.New(cfg.Fabric)
	if err != nil {
		return nil, err
	}
	r.fab = fab

	for i := 0; i < n; i++ {
		lc, err := linecard.New(linecard.Config{
			ID:       i,
			Arch:     cfg.Arch,
			Protocol: cfg.Protocols[i],
			Ports:    cfg.PortsPerLC,
			Capacity: cfg.LCCapacity,
		})
		if err != nil {
			return nil, err
		}
		r.lcs = append(r.lcs, lc)
		r.rp.Subscribe(lc.SetTable)
		r.reasm[i] = packet.NewReassembler()
	}

	if cfg.Arch == linecard.DRA {
		bus, err := eib.NewBus(r.k, r.rng.Split(), cfg.Bus)
		if err != nil {
			return nil, err
		}
		r.bus = bus
		r.ctrl = make([]*eib.Controller, n)
		for i := 0; i < n; i++ {
			r.ctrl[i] = eib.NewController(bus, i)
			r.wireController(i)
		}
	}
	return r, nil
}

// wireController installs the processing-tier policy callbacks for LC i's
// bus controller.
func (r *Router) wireController(i int) {
	lc := r.lcs[i]
	c := r.ctrl[i]
	c.AcceptData = func(p eib.ControlPacket) bool {
		return r.qualifies(i, p.Init, p.FaultyComponent, p.Proto, p.DataRate)
	}
	c.ServeLookup = func(addr uint32) (int, bool) {
		if !lc.CanCoverLookup() {
			return 0, false
		}
		egress, err := lc.Lookup(addr)
		if err != nil {
			return 0, false
		}
		lc.LookupsServedForPeers++
		return egress, true
	}
	c.OnRelease = func(p eib.ControlPacket) {
		// Nothing to tear down per-stream in the fluid model; counters
		// only.
		r.m.ReleasesSeen++
	}
}

// qualifies is the processing-tier admission check an LC applies to a
// REQ_D: spare-plane reachability (the topology policy), component
// health, protocol compatibility for PDLU faults, and spare capacity
// ψ = c_LC − L·c_LC against already-promised coverage.
func (r *Router) qualifies(self, faulty int, comp linecard.Component, proto packet.Protocol, rate float64) bool {
	if !r.policy.Covers(r.topo, faulty, self) {
		return false
	}
	lc := r.lcs[self]
	switch comp {
	case linecard.PDLU:
		if !lc.CanCoverPDLU(proto) {
			return false
		}
	case linecard.SRU, linecard.LFE:
		if !lc.CanCoverPI() {
			return false
		}
	default:
		return false
	}
	return r.spare(self) >= rate
}

// spare returns ψ for LC i minus coverage bandwidth it has already
// promised to other LCs.
func (r *Router) spare(i int) float64 {
	psi := r.lcs[i].Capacity() - r.offered[i]
	for _, b := range r.cover {
		if b != nil && b.peer == i && b.lp != nil {
			psi -= b.lp.Asked
		}
	}
	return psi
}

// SetTracer attaches a structured event recorder; nil detaches it. The
// recorder's clock is wired to the simulation kernel, so every event —
// including ones recorded with a zero At by older call sites — carries a
// sim timestamp.
func (r *Router) SetTracer(t *trace.Recorder) {
	r.tr = t
	t.SetClock(func() float64 { return float64(r.k.Now()) })
}

// Kernel exposes the simulation kernel.
func (r *Router) Kernel() *sim.Kernel { return r.k }

// NumLCs returns N.
func (r *Router) NumLCs() int { return len(r.lcs) }

// LC returns linecard i.
func (r *Router) LC(i int) *linecard.LC { return r.lcs[i] }

// Fabric returns the switching fabric.
func (r *Router) Fabric() *fabric.Fabric { return r.fab }

// Topology returns the interconnect graph. Fault state mutated through
// it directly bypasses coverage reconciliation; use FailTopoUnit and
// RepairTopoUnit instead.
func (r *Router) Topology() *topology.Graph { return r.topo }

// Bus returns the EIB (nil under BDR).
func (r *Router) Bus() *eib.Bus { return r.bus }

// SetOfferedLoad records LC i's offered load (bits per time unit), the L·c
// of the paper's performance analysis. It bounds the spare capacity the LC
// will promise to peers.
func (r *Router) SetOfferedLoad(i int, bits float64) {
	if bits < 0 || bits > r.lcs[i].Capacity() {
		panic(fmt.Sprintf("router: offered load %g outside [0, capacity]", bits))
	}
	r.offered[i] = bits
}

// OfferedLoad returns LC i's configured offered load.
func (r *Router) OfferedLoad(i int) float64 { return r.offered[i] }

// InstallRoutes announces the given routes and distributes tables to all
// LFEs.
func (r *Router) InstallRoutes(specs []workload.RouteSpec) {
	for _, s := range specs {
		r.rp.Announce(forwarding.Route{
			Prefix: forwarding.MakePrefix(s.Addr, s.Len),
			NextLC: s.NextLC,
		})
	}
	r.rp.Distribute()
}

// InstallUniformRoutes installs the workload package's standard /8-per-LC
// route scheme.
func (r *Router) InstallUniformRoutes() {
	r.InstallRoutes(workload.Routes(len(r.lcs)))
}

// Metrics returns a snapshot of the router's counters.
func (r *Router) Metrics() Metrics { return r.m }

// Metrics aggregates router-wide counters.
type Metrics struct {
	Delivered     uint64
	Dropped       uint64
	ViaFabric     uint64 // packets whose data path used only the fabric
	ViaEIB        uint64 // packets that used the EIB data lines at least once
	RemoteLookups uint64 // packets whose lookup was served by a peer LFE
	ReleasesSeen  uint64

	CoverageRequests    uint64
	CoverageEstablished uint64
	CoverageFailed      uint64

	// LatencySum accumulates modelled delivery latencies; divide by
	// Delivered for the mean.
	LatencySum float64

	DropReasons map[string]uint64
}

func (m *Metrics) drop(reason string) {
	m.Dropped++
	if m.DropReasons == nil {
		m.DropReasons = make(map[string]uint64)
	}
	m.DropReasons[reason]++
}
