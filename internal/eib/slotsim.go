package eib

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// SlotSim is a slot-accurate simulation of the EIB data lines driven by
// the distributed TDM arbitration of Figure 4. Where bus.go models
// bandwidth as a fluid promise (what the dependability and §5.3 analyses
// need), SlotSim executes the actual mechanism and is used to verify that
// it delivers the promised rates, and to render Figure 4-style traces.
//
// Mechanism modelled, per Section 4:
//
//   - every sender knows all posted asks (the processing tier gives each
//     LC a global view) and scales its transmission rate back to
//     B_prom = ask/ΣB · B_BUS when the bus is oversubscribed, dropping
//     the excess ("all the requesting LC's scale back their transmission
//     rates accordingly by dropping packets");
//   - the turn holder transmits "its data existing in its buffer" — the
//     buffer snapshot at turn start — then lowers L_t;
//   - rotation and release follow the counter protocol of arbiter.go.
//
// Time advances in data-line slots; one slot carries one payload unit.
// Rates are normalized: 1.0 equals the full data-line capacity.
type SlotSim struct {
	arb   *Arbiter
	flows map[int]*slotFlow
	// active mirrors flows as a slice sorted by LC: the Step hot loop
	// iterates it instead of the map, for determinism and speed.
	active   []*slotFlow
	totalAsk float64
	slot     int
	// Trace records the transmitting LC per slot when Tracing is set
	// (-1 for an idle slot).
	Trace   []int
	Tracing bool

	// Instrumentation (nil until SetMetrics).
	mSlots *metrics.Counter
	mIdle  *metrics.Counter
	mDepth *metrics.GaugeVec
}

type slotFlow struct {
	lc      int
	ask     float64
	buffer  float64
	sent    float64
	dropped float64
	// quota is the remaining payload of the current turn (snapshot of
	// the buffer when the turn was acquired); negative when not holding
	// the turn.
	quota float64
	// depth is the resolved queue-depth gauge for this LC, cached so the
	// per-slot loop does not format labels (nil without metrics).
	depth *metrics.Gauge
}

// NewSlotSim creates a slot simulator over the given LC indices.
func NewSlotSim(lcs []int) *SlotSim {
	return &SlotSim{arb: NewArbiter(lcs), flows: make(map[int]*slotFlow)}
}

// Arbiter exposes the underlying counter machinery for assertions.
func (s *SlotSim) Arbiter() *Arbiter { return s.arb }

// SetMetrics resolves slot-level instruments against reg: total and
// idle data-line slots, and the per-LP sender queue depth
// (eib_slotsim_queue_depth{lc}). A nil registry is a no-op.
func (s *SlotSim) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.mSlots = reg.Counter("eib_slotsim_slots_total", "Data-line slots simulated.")
	s.mIdle = reg.Counter("eib_slotsim_idle_slots_total", "Data-line slots with no LP transmitting.")
	s.mDepth = reg.GaugeVec("eib_slotsim_queue_depth", "Sender-side buffered payload per LP, in slot units.", "lc")
	for _, f := range s.active {
		f.depth = s.mDepth.With(fmt.Sprint(f.lc))
	}
}

// Open establishes an LP for lc asking for the given normalized rate
// (1.0 = the full data-line capacity). Asks may sum above 1; every sender
// then scales back per the promise formula.
func (s *SlotSim) Open(lc int, ask float64) {
	if ask <= 0 {
		panic(fmt.Sprintf("eib: slot flow ask %g must be positive", ask))
	}
	if _, ok := s.flows[lc]; ok {
		panic(fmt.Sprintf("eib: LC %d already has a slot flow", lc))
	}
	s.arb.Establish(lc)
	f := &slotFlow{lc: lc, ask: ask, quota: -1}
	if s.mDepth != nil {
		f.depth = s.mDepth.With(fmt.Sprint(lc))
	}
	s.flows[lc] = f
	i := sort.Search(len(s.active), func(i int) bool { return s.active[i].lc >= lc })
	s.active = append(s.active, nil)
	copy(s.active[i+1:], s.active[i:])
	s.active[i] = f
	s.totalAsk += ask
}

// Close releases lc's LP.
func (s *SlotSim) Close(lc int) {
	if _, ok := s.flows[lc]; !ok {
		panic(fmt.Sprintf("eib: LC %d has no slot flow", lc))
	}
	s.arb.Release(lc)
	delete(s.flows, lc)
	i := sort.Search(len(s.active), func(i int) bool { return s.active[i].lc >= lc })
	s.active = append(s.active[:i], s.active[i+1:]...)
	// Recompute rather than subtract: keeps totalAsk drift-free over long
	// open/close churn.
	s.totalAsk = 0
	for _, g := range s.active {
		s.totalAsk += g.ask
	}
}

// scale returns the sender-side scale-back factor min(1, B_BUS/ΣB).
func (s *SlotSim) scale() float64 {
	if s.totalAsk <= 1 {
		return 1
	}
	return 1 / s.totalAsk
}

// Promise returns the rate the promise formula grants lc right now.
func (s *SlotSim) Promise(lc int) float64 {
	f, ok := s.flows[lc]
	if !ok {
		return 0
	}
	return f.ask * s.scale()
}

// Step advances one data-line slot.
func (s *SlotSim) Step() {
	s.slot++
	s.mSlots.Inc()
	scale := s.scale()
	for _, f := range s.active {
		// Arrivals at the ask; anything beyond the promised rate is
		// dropped at the sender (the paper's scale-back).
		prom := f.ask * scale
		f.buffer += prom
		f.dropped += f.ask - prom
		if f.depth != nil {
			f.depth.Set(f.buffer)
		}
	}
	cur := s.arb.Current()
	if cur == -1 {
		s.mIdle.Inc()
		if s.Tracing {
			s.Trace = append(s.Trace, -1)
		}
		return
	}
	f := s.flows[cur]
	if f.quota < 0 {
		// Just acquired the turn: snapshot the buffer.
		f.quota = f.buffer
	}
	drained := 1.0
	if f.quota < drained {
		drained = f.quota
	}
	if f.buffer < drained {
		drained = f.buffer
	}
	f.buffer -= drained
	f.quota -= drained
	f.sent += drained
	if s.Tracing {
		s.Trace = append(s.Trace, cur)
	}
	// L_t: the holder finished the buffered data it announced.
	if f.quota <= 1e-12 {
		f.quota = -1
		s.arb.CompleteTurn()
	}
}

// Run advances n slots.
func (s *SlotSim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Throughput returns each LP's achieved rate (payload units per slot) over
// the run so far, keyed by LC.
func (s *SlotSim) Throughput() map[int]float64 {
	out := make(map[int]float64, len(s.flows))
	for lc, f := range s.flows {
		if s.slot > 0 {
			out[lc] = f.sent / float64(s.slot)
		}
	}
	return out
}

// DropRate returns each LP's sender-side drop rate per slot.
func (s *SlotSim) DropRate(lc int) float64 {
	f, ok := s.flows[lc]
	if !ok || s.slot == 0 {
		return 0
	}
	return f.dropped / float64(s.slot)
}

// FlowLCs returns the LCs with open flows in ascending order.
func (s *SlotSim) FlowLCs() []int {
	out := make([]int, 0, len(s.active))
	for _, f := range s.active {
		out = append(out, f.lc)
	}
	return out
}

// RenderTrace formats a recorded trace like Figure 4: one lane per LP
// that ever held the data lines during the trace (closed LPs keep their
// lane), marking the slots in which it transmitted.
func (s *SlotSim) RenderTrace() string {
	if !s.Tracing || len(s.Trace) == 0 {
		return "(no trace recorded)\n"
	}
	seen := map[int]bool{}
	for _, lc := range s.FlowLCs() {
		seen[lc] = true
	}
	for _, holder := range s.Trace {
		if holder >= 0 {
			seen[holder] = true
		}
	}
	lanes := make([]int, 0, len(seen))
	for lc := range seen {
		lanes = append(lanes, lc)
	}
	sort.Ints(lanes)
	if len(lanes) == 0 {
		return fmt.Sprintf("(idle for %d slots)\n", len(s.Trace))
	}
	out := ""
	for _, lc := range lanes {
		line := fmt.Sprintf("LC%-2d |", lc)
		for _, holder := range s.Trace {
			if holder == lc {
				line += "#"
			} else {
				line += "."
			}
		}
		out += line + "\n"
	}
	return out
}
