package eib

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// ErrBusDown is returned for operations on a failed EIB.
var ErrBusDown = errors.New("eib: bus failed")

// ErrNoCoverage is returned when no healthy LC accepts a request.
var ErrNoCoverage = errors.New("eib: no LC accepted the request")

// Handler receives control packets broadcast on the control lines. Every
// registered controller sees every packet (it is a bus); controllers
// filter by the addressing tier themselves, like real bus interfaces.
type Handler func(ControlPacket)

// BusConfig parameterizes the EIB.
type BusConfig struct {
	// DataCapacity is B_BUS, the data-line bandwidth in bits per time
	// unit. The paper never states it; DESIGN.md documents the default
	// of one LC capacity.
	DataCapacity float64
	// CtrlSlot is the control-line slot time. Control packets are short;
	// the default models a microsecond-scale slot.
	CtrlSlot float64
	// MaxBackoffExp caps the CSMA/CD binary exponential backoff.
	MaxBackoffExp int
}

// DefaultBusConfig returns the configuration used across the reproduction:
// B_BUS = 10 Gbps (one LC capacity; see DESIGN.md §3), a 1 µs control
// slot, and the classic Ethernet backoff cap of 10. Rates and times are
// in the same nominal unit as the linecard capacities (bits and seconds),
// matching router.Config's defaults; the simulation kernel itself is
// unit-agnostic.
func DefaultBusConfig() BusConfig {
	return BusConfig{
		DataCapacity:  10e9,
		CtrlSlot:      1e-6,
		MaxBackoffExp: 10,
	}
}

// LP is an established logical path over the data lines.
type LP struct {
	ID        int
	Init, Rec int
	// Asked is B_LC, the rate LC_init requested.
	Asked float64
	// Dir and the fault context are retained for diagnostics.
	Dir Direction
}

// Bus is the enhanced internal bus: broadcast control lines with CSMA/CD
// contention and TDM-shared data lines. It is driven by a sim.Kernel so
// control-plane latency is part of simulated time.
type Bus struct {
	k    *sim.Kernel
	rng  *xrand.Source
	cfg  BusConfig
	fail bool
	ver  uint64 // bumps on Fail/Repair; see Version

	handlers  map[int]Handler
	order     []int // attached LC ids, ascending — the delivery order
	sniffers  []Handler
	busyUntil sim.Time
	freeDel   []*delivery

	lps    map[int]*LP
	nextLP int

	// OnLP, when non-nil, observes every LP open (opened=true) and every
	// close or drop (opened=false) — the attachment point for shadow
	// arbitration bookkeeping such as the distributed-counter invariant.
	OnLP func(opened bool, lp *LP)

	// Stats
	CtrlPackets uint64
	Collisions  uint64
	LPsOpened   uint64
	LPsClosed   uint64

	// Instrumentation, resolved by SetMetrics; all nil (no-op) until a
	// registry is attached.
	mCtrlByType  [numControlTypes]*metrics.Counter
	mCollisions  *metrics.Counter
	mBackoff     *metrics.Histogram
	mLPsOpened   *metrics.Counter
	mLPsClosed   *metrics.Counter
	mActiveLPs   *metrics.Gauge
	mUtilization *metrics.Gauge
}

// NewBus creates an EIB on the given kernel. rng drives CSMA/CD backoff.
func NewBus(k *sim.Kernel, rng *xrand.Source, cfg BusConfig) (*Bus, error) {
	if cfg.DataCapacity <= 0 {
		return nil, fmt.Errorf("eib: data capacity must be positive")
	}
	if cfg.CtrlSlot <= 0 {
		return nil, fmt.Errorf("eib: control slot must be positive")
	}
	if cfg.MaxBackoffExp <= 0 {
		cfg.MaxBackoffExp = 10
	}
	return &Bus{
		k:        k,
		rng:      rng,
		cfg:      cfg,
		handlers: make(map[int]Handler),
		lps:      make(map[int]*LP),
	}, nil
}

// Config returns the bus configuration.
func (b *Bus) Config() BusConfig { return b.cfg }

// SetMetrics resolves the bus instruments against reg:
//
//	eib_ctrl_packets_total{type} — control packets per protocol tier
//	                               message type (REQ_D, REP_D, ...);
//	eib_collisions_total         — CSMA/CD carrier-busy collisions;
//	eib_backoff_slots            — histogram of drawn backoff slots;
//	eib_lps_opened_total / eib_lps_closed_total — LP churn;
//	eib_active_lps               — β, the open logical paths;
//	eib_data_utilization         — ΣB_LC / B_BUS, capped at 1.
//
// A nil registry is a no-op.
func (b *Bus) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	ctrl := reg.CounterVec("eib_ctrl_packets_total", "Control packets broadcast on the EIB control lines.", "type")
	for t := ControlType(0); t < numControlTypes; t++ {
		b.mCtrlByType[t] = ctrl.With(t.String())
	}
	b.mCollisions = reg.Counter("eib_collisions_total", "CSMA/CD collisions on the EIB control lines.")
	b.mBackoff = reg.Histogram("eib_backoff_slots", "Backoff slots drawn after a collision.",
		metrics.ExpBuckets(1, 2, 11))
	b.mLPsOpened = reg.Counter("eib_lps_opened_total", "Logical paths opened over the EIB data lines.")
	b.mLPsClosed = reg.Counter("eib_lps_closed_total", "Logical paths closed or dropped.")
	b.mActiveLPs = reg.Gauge("eib_active_lps", "Open logical paths (the arbitration counter β).")
	b.mUtilization = reg.Gauge("eib_data_utilization", "Requested share of the data-line capacity, capped at 1.")
}

// updateLPGauges refreshes the LP gauges after any open/close/fail.
func (b *Bus) updateLPGauges() {
	if b.mActiveLPs == nil {
		return
	}
	b.mActiveLPs.Set(float64(len(b.lps)))
	u := b.TotalAsked() / b.cfg.DataCapacity
	if u > 1 {
		u = 1
	}
	b.mUtilization.Set(u)
}

// Attach registers the bus controller of LC lc. Re-attaching replaces the
// handler (used after controller repair).
func (b *Bus) Attach(lc int, h Handler) {
	if h == nil {
		panic("eib: nil handler")
	}
	if _, ok := b.handlers[lc]; !ok {
		i := sort.SearchInts(b.order, lc)
		b.order = append(b.order, 0)
		copy(b.order[i+1:], b.order[i:])
		b.order[i] = lc
	}
	b.handlers[lc] = h
}

// Detach removes LC lc from the bus (controller failure).
func (b *Bus) Detach(lc int) {
	if _, ok := b.handlers[lc]; ok {
		i := sort.SearchInts(b.order, lc)
		b.order = append(b.order[:i], b.order[i+1:]...)
	}
	delete(b.handlers, lc)
}

// Sniff registers a promiscuous observer that sees every delivered
// control packet regardless of addressing — a protocol analyzer on the
// control lines. Sniffers cannot transmit.
func (b *Bus) Sniff(h Handler) {
	if h == nil {
		panic("eib: nil sniffer")
	}
	b.sniffers = append(b.sniffers, h)
}

// Fail marks the EIB itself failed: the passive lines are cut. All LPs
// are dropped.
func (b *Bus) Fail() {
	b.fail = true
	b.ver++
	for id, lp := range b.lps {
		delete(b.lps, id)
		b.LPsClosed++
		b.mLPsClosed.Inc()
		if b.OnLP != nil {
			b.OnLP(false, lp)
		}
	}
	b.updateLPGauges()
}

// Repair restores the EIB lines.
func (b *Bus) Repair() {
	b.fail = false
	b.ver++
}

// Failed reports whether the EIB lines are down.
func (b *Bus) Failed() bool { return b.fail }

// Version returns a counter that changes whenever the bus's health state
// does — a cache-invalidation key for derived predicates.
func (b *Bus) Version() uint64 { return b.ver }

// Broadcast sends a control packet on the control lines. The packet is
// validated, contends for the lines (CSMA/CD: carrier sense via the
// busy-until horizon, collisions resolved by binary exponential backoff),
// and is then delivered to every attached controller. delivered, if
// non-nil, runs at delivery time after the handlers.
func (b *Bus) Broadcast(p ControlPacket, delivered func()) error {
	if b.fail {
		return ErrBusDown
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if _, ok := b.handlers[p.Init]; !ok {
		return fmt.Errorf("eib: initiator LC %d has no attached controller", p.Init)
	}
	now := b.k.Now()
	start := now
	if b.busyUntil > now {
		// Carrier sensed busy: wait for idle, then contend. A waiting
		// sender collides with probability that rises with load; model
		// one backoff draw per queued sender.
		start = b.busyUntil
		b.Collisions++
		b.mCollisions.Inc()
		exp := 1 + b.rng.Intn(b.cfg.MaxBackoffExp)
		slots := b.rng.Intn(1 << uint(exp))
		b.mBackoff.Observe(float64(slots))
		start += sim.Time(float64(slots) * b.cfg.CtrlSlot)
	}
	end := start + sim.Time(b.cfg.CtrlSlot)
	b.busyUntil = end
	b.CtrlPackets++
	if int(p.Type) < len(b.mCtrlByType) {
		b.mCtrlByType[p.Type].Inc()
	}
	b.k.Schedule(end, b.newDelivery(p, delivered).fn)
	return nil
}

// delivery is a pooled in-flight control packet: its callback closure is
// built once per record, so broadcasting in steady state does not allocate.
type delivery struct {
	b         *Bus
	p         ControlPacket
	delivered func()
	fn        func()
}

func (b *Bus) newDelivery(p ControlPacket, delivered func()) *delivery {
	var d *delivery
	if n := len(b.freeDel); n > 0 {
		d = b.freeDel[n-1]
		b.freeDel[n-1] = nil
		b.freeDel = b.freeDel[:n-1]
	} else {
		d = &delivery{b: b}
		d.fn = d.run
	}
	d.p = p
	d.delivered = delivered
	return d
}

// run delivers the control packet to every addressed controller in
// ascending LC order (deterministic), then recycles the record.
func (d *delivery) run() {
	b, p, delivered := d.b, d.p, d.delivered
	d.p = ControlPacket{}
	d.delivered = nil
	b.freeDel = append(b.freeDel, d)
	if b.fail {
		return // lines died in flight
	}
	for _, lc := range b.order {
		if p.Rec != Broadcast && p.Rec != lc && p.Init != lc {
			continue // addressing tier: not for this controller
		}
		b.handlers[lc](p)
	}
	for _, s := range b.sniffers {
		s(p)
	}
	if delivered != nil {
		delivered()
	}
}

// --- Data-line logical paths and the bandwidth promise formula ---

// OpenLP establishes a logical path from init to rec asking for the given
// rate (B_LC). The returned LP is immediately part of the TDM share.
func (b *Bus) OpenLP(init, rec int, asked float64, dir Direction) (*LP, error) {
	if b.fail {
		return nil, ErrBusDown
	}
	if asked <= 0 {
		return nil, fmt.Errorf("eib: LP rate must be positive, got %g", asked)
	}
	b.nextLP++
	lp := &LP{ID: b.nextLP, Init: init, Rec: rec, Asked: asked, Dir: dir}
	b.lps[lp.ID] = lp
	b.LPsOpened++
	b.mLPsOpened.Inc()
	if b.OnLP != nil {
		b.OnLP(true, lp)
	}
	b.updateLPGauges()
	return lp, nil
}

// CloseLP releases an LP. Closing an unknown LP is a no-op (it may have
// been dropped by a bus failure).
func (b *Bus) CloseLP(id int) {
	if lp, ok := b.lps[id]; ok {
		delete(b.lps, id)
		b.LPsClosed++
		b.mLPsClosed.Inc()
		if b.OnLP != nil {
			b.OnLP(false, lp)
		}
		b.updateLPGauges()
	}
}

// ActiveLPs returns the number of open logical paths (β).
func (b *Bus) ActiveLPs() int { return len(b.lps) }

// LPs returns the open logical paths sorted by ID — a read-only view
// for invariant checks and diagnostics.
func (b *Bus) LPs() []*LP {
	out := make([]*LP, 0, len(b.lps))
	for _, lp := range b.lps {
		out = append(out, lp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalAsked returns B_LCT, the sum of requested rates.
func (b *Bus) TotalAsked() float64 {
	s := 0.0
	for _, lp := range b.lps {
		s += lp.Asked
	}
	return s
}
