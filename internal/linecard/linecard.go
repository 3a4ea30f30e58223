// Package linecard models a router linecard (LC) for both architectures in
// the paper: the basic distributed router (BDR) LC of Figure 1 and the DRA
// LC of Figure 2. An LC is a set of functional units — physical interface
// units (PIU), an optional protocol-dependent logic unit (PDLU, DRA only),
// a segmentation-and-reassembly unit (SRU), a local forwarding engine
// (LFE), and under DRA an EIB bus controller — each of which can fail and
// be repaired independently.
//
// The package holds component state and the coverage predicates of the DRA
// fault model (who may cover what); the traffic orchestration lives in
// internal/router.
package linecard

import (
	"fmt"

	"repro/internal/forwarding"
	"repro/internal/packet"
)

// Component identifies a functional unit of an LC.
type Component uint8

// The functional units of the paper's Figures 1 and 2. BusController exists
// only under DRA (it is part of the EIB extension).
const (
	PIU Component = iota
	PDLU
	SRU
	LFE
	BusController
	numComponents
)

// NumComponents is the count of component kinds.
const NumComponents = int(numComponents)

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case PIU:
		return "PIU"
	case PDLU:
		return "PDLU"
	case SRU:
		return "SRU"
	case LFE:
		return "LFE"
	case BusController:
		return "BusController"
	default:
		return fmt.Sprintf("Component(%d)", uint8(c))
	}
}

// Arch selects the linecard structure.
type Arch uint8

// The two architectures compared throughout the paper.
const (
	BDR Arch = iota // basic distributed router: no PDLU, no bus controller
	DRA             // dependable router architecture: PDLU + EIB bus controller
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	if a == BDR {
		return "BDR"
	}
	return "DRA"
}

// Config describes one linecard.
type Config struct {
	ID       int
	Arch     Arch
	Protocol packet.Protocol
	Ports    int
	// Capacity is the LC's aggregate port bandwidth in bits per hour of
	// simulation time (the paper's c_LC = 10 Gbps).
	Capacity float64
}

// LC is a linecard instance.
type LC struct {
	cfg    Config
	failed [NumComponents]bool
	// portDown tracks individual external ports: each port terminates on
	// its own physical interface, so a port fault takes down one link
	// while a PIU *component* fault (the shared interface logic) takes
	// down every port of the card — the paper's "a single LC component
	// failure brings down all its interfaces".
	portDown []bool
	table    *forwarding.Table

	// Counters for delivered and dropped traffic, maintained by the
	// router orchestration.
	Delivered             uint64
	Dropped               uint64
	LookupsServedForPeers uint64
}

// New validates the configuration and returns a healthy LC.
func New(cfg Config) (*LC, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("linecard %d: need at least one port", cfg.ID)
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("linecard %d: capacity must be positive", cfg.ID)
	}
	return &LC{cfg: cfg, portDown: make([]bool, cfg.Ports)}, nil
}

// FailPort marks one external port down. It panics on an out-of-range
// port index.
func (l *LC) FailPort(p int) {
	l.checkPort(p)
	l.portDown[p] = true
}

// RepairPort restores one external port.
func (l *LC) RepairPort(p int) {
	l.checkPort(p)
	l.portDown[p] = false
}

// PortUp reports whether external port p can carry traffic: the port
// itself and the card's PIU logic must both be healthy.
func (l *LC) PortUp(p int) bool {
	l.checkPort(p)
	return !l.portDown[p] && l.Healthy(PIU)
}

// PortsUp counts the currently usable external ports.
func (l *LC) PortsUp() int {
	if !l.Healthy(PIU) {
		return 0
	}
	n := 0
	for _, down := range l.portDown {
		if !down {
			n++
		}
	}
	return n
}

func (l *LC) checkPort(p int) {
	if p < 0 || p >= l.cfg.Ports {
		panic(fmt.Sprintf("linecard %d: port %d outside [0, %d)", l.cfg.ID, p, l.cfg.Ports))
	}
}

// ID returns the linecard index.
func (l *LC) ID() int { return l.cfg.ID }

// Arch returns the linecard architecture.
func (l *LC) Arch() Arch { return l.cfg.Arch }

// Protocol returns the L2 protocol this LC terminates.
func (l *LC) Protocol() packet.Protocol { return l.cfg.Protocol }

// Ports returns the number of external ports.
func (l *LC) Ports() int { return l.cfg.Ports }

// Capacity returns the aggregate LC bandwidth.
func (l *LC) Capacity() float64 { return l.cfg.Capacity }

// has reports whether the architecture includes the component at all.
func (l *LC) has(c Component) bool {
	switch c {
	case PDLU, BusController:
		return l.cfg.Arch == DRA
	default:
		return true
	}
}

// Fail marks a component failed. Failing a component the architecture does
// not have panics — it is a driver bug.
func (l *LC) Fail(c Component) {
	if !l.has(c) {
		panic(fmt.Sprintf("linecard %d (%s): no %s to fail", l.cfg.ID, l.cfg.Arch, c))
	}
	l.failed[c] = true
}

// Repair restores a component.
func (l *LC) Repair(c Component) { l.failed[c] = false }

// RepairAll restores every component.
func (l *LC) RepairAll() {
	for i := range l.failed {
		l.failed[i] = false
	}
}

// Healthy reports whether component c is operational. Components absent
// from the architecture report healthy=false for PDLU/BusController under
// BDR, since they can perform no function.
func (l *LC) Healthy(c Component) bool { return l.has(c) && !l.failed[c] }

// Failed reports whether component c has explicitly failed.
func (l *LC) Failed(c Component) bool { return l.failed[c] }

// FullyHealthy reports whether every component present in the architecture
// is operational.
func (l *LC) FullyHealthy() bool {
	for c := Component(0); c < Component(NumComponents); c++ {
		if l.has(c) && l.failed[c] {
			return false
		}
	}
	return true
}

// FailedComponents lists the failed components, for logs and repair.
func (l *LC) FailedComponents() []Component { return l.FailedComponentsAppend(nil) }

// FailedComponentsAppend appends the failed components to buf and returns
// the extended slice — the zero-alloc form of FailedComponents for hot
// repair loops that keep a scratch buffer.
func (l *LC) FailedComponentsAppend(buf []Component) []Component {
	for c := Component(0); c < Component(NumComponents); c++ {
		if l.failed[c] && l.has(c) {
			buf = append(buf, c)
		}
	}
	return buf
}

// SetTable installs a routing-table snapshot into the LFE; the route
// processor calls this through its subscription.
func (l *LC) SetTable(t *forwarding.Table) { l.table = t }

// Lookup performs an LFE lookup. It fails when the LFE is down or has no
// table.
func (l *LC) Lookup(addr uint32) (int, error) {
	if !l.Healthy(LFE) {
		return 0, fmt.Errorf("linecard %d: LFE failed", l.cfg.ID)
	}
	if l.table == nil {
		return 0, fmt.Errorf("linecard %d: no routing table", l.cfg.ID)
	}
	lc, ok := l.table.Lookup(addr)
	if !ok {
		return 0, fmt.Errorf("linecard %d: no route for %08x", l.cfg.ID, addr)
	}
	return lc, nil
}

// --- DRA coverage predicates (paper §3.2) ---

// OnEIB reports whether this LC can participate in EIB communication at
// all: it must be a DRA LC with a healthy bus controller.
func (l *LC) OnEIB() bool {
	return l.cfg.Arch == DRA && l.Healthy(BusController)
}

// CanCoverPI reports whether this LC can serve as an intermediate LC for a
// protocol-independent failure (SRU or LFE) of another LC: its own PI
// units and bus controller must be healthy. Any protocol qualifies.
func (l *LC) CanCoverPI() bool {
	return l.OnEIB() && l.Healthy(SRU) && l.Healthy(LFE)
}

// CanCoverPDLU reports whether this LC can cover a PDLU failure of an LC
// speaking the given protocol: per the paper, only an LC implementing the
// same protocol, with a healthy PDLU and bus controller, qualifies.
func (l *LC) CanCoverPDLU(proto packet.Protocol) bool {
	return l.OnEIB() && l.Healthy(PDLU) && l.cfg.Protocol == proto
}

// CanCoverLookup reports whether this LC can answer remote LFE lookup
// requests (REQ_L) for a peer with a failed LFE.
func (l *LC) CanCoverLookup() bool {
	return l.OnEIB() && l.Healthy(LFE) && l.table != nil
}

// LocalIngressPath reports whether the LC can move an incoming packet
// through its own units without help: PIU plus, depending on the
// architecture, the protocol chain.
func (l *LC) LocalIngressPath() bool {
	if !l.Healthy(PIU) {
		return false
	}
	if l.cfg.Arch == DRA && !l.Healthy(PDLU) {
		return false
	}
	return l.Healthy(SRU) && l.Healthy(LFE)
}

// LocalEgressPath reports whether the LC can deliver a packet arriving
// over the fabric out of its own ports without help.
func (l *LC) LocalEgressPath() bool {
	if !l.Healthy(PIU) || !l.Healthy(SRU) {
		return false
	}
	if l.cfg.Arch == DRA && !l.Healthy(PDLU) {
		return false
	}
	return true
}
