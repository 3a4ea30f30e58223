package router

import (
	"fmt"
	"math"

	"repro/internal/linecard"
	"repro/internal/sim"
)

// FaultRates carries the exponential failure rates of the paper's Section
// 5 (per hour of simulation time) plus the repair rate.
type FaultRates struct {
	PDLU float64 // λ_LPD: protocol-dependent logic unit
	SRU  float64 // part of λ_LPI
	LFE  float64 // part of λ_LPI
	PIU  float64 // assumed 0 in the paper's analysis; modellable here
	BC   float64 // λ_BC: per-LC bus controller (DRA only)
	Bus  float64 // λ_BUS: the EIB passive lines (DRA only)
	// Repair is μ; a repair event restores every failed unit in the
	// router at once, returning the system to state (0, 0). Zero disables
	// repair (reliability runs).
	Repair float64
}

// PaperRates returns the rates of Section 5: λ_LC = 2e-5 split as
// λ_LPD = 6e-6 and λ_LPI = 1.4e-5 (apportioned 8e-6 SRU / 6e-6 LFE),
// λ_BC = λ_BUS = 1e-6.
func PaperRates(repair float64) FaultRates {
	return FaultRates{
		PDLU:   6e-6,
		SRU:    8e-6,
		LFE:    6e-6,
		BC:     1e-6,
		Bus:    1e-6,
		Repair: repair,
	}
}

// Validate rejects negative rates.
func (f FaultRates) Validate() error {
	for _, v := range []float64{f.PDLU, f.SRU, f.LFE, f.PIU, f.BC, f.Bus, f.Repair} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("router: invalid fault rate %g", v)
		}
	}
	return nil
}

// DefaultBiasDelta is the balanced-failure-biasing δ used when Biasing
// leaves Delta zero: the probability that the next busy-period event is a
// further component failure rather than the repair completion. It stays
// below 0.5 so the inflated total rate Λ' = μ·δ/(1−δ) stays below μ,
// which keeps the exposure weight e^{Λ'·B} of a busy period square-
// integrable (at δ = 0.5 the estimator is still unbiased but its variance
// is infinite).
const DefaultBiasDelta = 0.3

// Biasing configures balanced failure biasing, the standard rare-event
// importance-sampling scheme for dependability models: while a repair is
// pending (the "busy period" that starts at the first component failure),
// component lifetimes are drawn from inflated exponential rates so that
// the multi-failure paths leading to service loss stop being rare, and the
// injector accumulates the log likelihood ratio that de-biases any
// estimate computed from the trajectory.
//
// The biased dynamics are balanced: the total biased failure rate Λ' is
// split equally over the components still alive, so low-rate components
// (the EIB lines, the bus controllers) are sampled as often as high-rate
// ones — exactly the components the DRA failure paths need. Λ' is chosen
// from Delta as the rate that makes the next busy-period event a failure
// with probability Delta when racing the repair (Λ' = μ·Delta/(1−Delta));
// without repair the same odds are applied to the surviving components'
// aggregate true rate.
type Biasing struct {
	// Enabled turns the scheme on. The zero value (off) leaves the
	// injector's sampling byte-for-byte identical to the unbiased one.
	Enabled bool
	// Delta is the target probability that the next busy-period event is
	// a failure; it must lie in (0, 1). Zero selects DefaultBiasDelta.
	// Values below 0.5 keep Λ' < μ and the weight variance finite.
	Delta float64
	// StopWhen, when non-nil, is consulted after every injected failure:
	// once it reports true, the remaining lifetimes of the current busy
	// period return to their true rates. This is the standard "switch off
	// the importance sampling after hitting the rare set" refinement —
	// without it, the exposure term e^{Λ'·t} keeps growing precisely on
	// the down cycles that carry all of the estimate's mass, giving W·D a
	// heavy tail that dominates the estimator variance. The predicate
	// must depend only on the current trajectory (e.g. "the target LC is
	// down"), which keeps the measure change adapted and the estimate
	// unbiased.
	StopWhen func() bool
}

// Validate rejects out-of-range parameters.
func (b Biasing) Validate() error {
	if !b.Enabled {
		return nil
	}
	if b.Delta < 0 || b.Delta >= 1 || math.IsNaN(b.Delta) {
		return fmt.Errorf("router: biasing delta %g outside [0, 1)", b.Delta)
	}
	return nil
}

// delta returns the effective δ.
func (b Biasing) delta() float64 {
	if b.Delta == 0 {
		return DefaultBiasDelta
	}
	return b.Delta
}

// Injector drives component lifetimes and the repair process on a router.
// Each component of each LC (plus the EIB lines) gets an exponential
// time-to-failure; a failed component stays failed until a repair event
// restores the whole router.
//
// With biasing enabled the injector additionally maintains the path's log
// likelihood ratio log(dP/dQ): for every lifetime segment simulated at
// rate λ' while the true rate is λ, an exposure term (λ'−λ)·Δt accrues,
// plus log(λ/λ') when the lifetime actually fires. Segments simulated at
// the true rate contribute exactly zero, so the unbiased phases cost
// nothing and CheckpointLR can be called at any boundary.
type Injector struct {
	r     *Router
	rates FaultRates
	// Faults counts injected component failures; Repairs counts repair
	// completions.
	Faults  uint64
	Repairs uint64

	repairPending bool

	bias   Biasing
	busy   bool // in a busy period (≥1 failure since last repair)
	damped bool // StopWhen fired: biasing off for the rest of the period
	logLR  float64
	// pending is the insertion-ordered registry of armed lifetimes. The
	// order is fixed by Start and preserved across retargets so that the
	// RNG draw sequence — and therefore every estimate — is reproducible.
	pending []*lifetime
	// freeLts recycles fired lifetime records (and their fire closures) so
	// the steady-state fail/repair cycle allocates nothing.
	freeLts []*lifetime
	// repairFn is the repair-completion handler, built once.
	repairFn func()
	// compBuf is the scratch failed-component list reused by repairs.
	compBuf []linecard.Component
	// unitBuf is the scratch failed-topology-unit list reused by repairs.
	unitBuf []int
}

// lifetime is one armed component, EIB-lines, or topology-unit
// time-to-failure.
type lifetime struct {
	lc       int                // -1 for the EIB passive lines and topology units
	comp     linecard.Component // valid when lc >= 0
	unit     int                // topology unit index, or -1
	trueRate float64
	simRate  float64
	armedAt  sim.Time
	ev       sim.Timer
	// fireFn calls inj.fire(this); cached for the record's whole life so
	// each (re)schedule reuses one closure instead of minting one.
	fireFn func()
}

// NewInjector validates the rates and attaches an injector to the router.
func NewInjector(r *Router, rates FaultRates) (*Injector, error) {
	if err := rates.Validate(); err != nil {
		return nil, err
	}
	return &Injector{r: r, rates: rates}, nil
}

// SetBiasing configures balanced failure biasing. Call before Start.
func (inj *Injector) SetBiasing(b Biasing) error {
	if err := b.Validate(); err != nil {
		return err
	}
	inj.bias = b
	return nil
}

// CheckpointLR closes every open lifetime segment at the current kernel
// time and returns the accumulated log likelihood ratio. It is safe to
// call at any observation boundary (a cycle end, the horizon); accounting
// continues correctly afterwards because each segment restarts at the
// checkpoint time.
func (inj *Injector) CheckpointLR() float64 {
	for _, lt := range inj.pending {
		inj.closeSegment(lt, false)
	}
	return inj.logLR
}

// Start schedules the initial lifetime of every component. Call once,
// before running the kernel.
func (inj *Injector) Start() {
	r := inj.r
	for i := range r.lcs {
		if r.cfg.Arch == linecard.DRA {
			inj.arm(i, linecard.PDLU, inj.rates.PDLU)
			inj.arm(i, linecard.SRU, inj.rates.SRU)
			inj.arm(i, linecard.BusController, inj.rates.BC)
		} else {
			// A BDR LC has no separate PDLU: its protocol-dependent
			// logic lives inside the PI units, so the PD rate folds into
			// the SRU and λ_LC is preserved.
			inj.arm(i, linecard.SRU, inj.rates.SRU+inj.rates.PDLU)
		}
		inj.arm(i, linecard.LFE, inj.rates.LFE)
		inj.arm(i, linecard.PIU, inj.rates.PIU)
	}
	if r.cfg.Arch == linecard.DRA {
		inj.armBus()
	}
	// Topology interconnect units (mesh routers, crossbar crosspoints,
	// fat-tree switches and their links) fail at the passive-interconnect
	// rate. The bus topology has no units, so this loop is empty there
	// and the RNG draw sequence stays byte-identical to the pre-topology
	// injector.
	for u := 0; u < r.topo.Units(); u++ {
		inj.armUnit(u)
	}
}

// newLifetime takes a lifetime record from the free list or allocates one,
// wiring its cached fire closure on first use.
func (inj *Injector) newLifetime() *lifetime {
	if n := len(inj.freeLts); n > 0 {
		lt := inj.freeLts[n-1]
		inj.freeLts[n-1] = nil
		inj.freeLts = inj.freeLts[:n-1]
		return lt
	}
	lt := &lifetime{}
	lt.fireFn = func() { inj.fire(lt) }
	return lt
}

// release returns a fired lifetime record to the free list. Callers must
// be done with its fields; the fire closure stays attached and follows the
// record into its next incarnation.
func (inj *Injector) release(lt *lifetime) {
	lt.ev = sim.Timer{}
	inj.freeLts = append(inj.freeLts, lt)
}

// arm registers and schedules the next failure of one component. Rearming
// happens after each repair, so a component has exactly one pending
// lifetime at a time.
func (inj *Injector) arm(lc int, c linecard.Component, rate float64) {
	if rate <= 0 {
		return
	}
	lt := inj.newLifetime()
	lt.lc, lt.comp, lt.unit = lc, c, -1
	lt.trueRate, lt.simRate = rate, rate
	lt.armedAt = inj.r.k.Now()
	inj.pending = append(inj.pending, lt)
	inj.schedule(lt)
}

// armBus registers and schedules the next EIB-lines failure.
func (inj *Injector) armBus() {
	if inj.rates.Bus <= 0 {
		return
	}
	lt := inj.newLifetime()
	lt.lc, lt.comp, lt.unit = -1, 0, -1
	lt.trueRate, lt.simRate = inj.rates.Bus, inj.rates.Bus
	lt.armedAt = inj.r.k.Now()
	inj.pending = append(inj.pending, lt)
	inj.schedule(lt)
}

// armUnit registers and schedules the next failure of topology unit u.
// Interconnect elements share the EIB passive-lines rate λ_BUS — they
// are the same class of hardware (backplane traces, switch silicon).
func (inj *Injector) armUnit(u int) {
	if inj.rates.Bus <= 0 {
		return
	}
	lt := inj.newLifetime()
	lt.lc, lt.comp, lt.unit = -1, 0, u
	lt.trueRate, lt.simRate = inj.rates.Bus, inj.rates.Bus
	lt.armedAt = inj.r.k.Now()
	inj.pending = append(inj.pending, lt)
	inj.schedule(lt)
}

// schedule draws the lifetime's delay at its current simulated rate.
func (inj *Injector) schedule(lt *lifetime) {
	r := inj.r
	lt.ev = r.k.After(sim.Time(r.rng.Exp(lt.simRate)), lt.fireFn)
}

// fire handles a lifetime expiring: likelihood accounting, the component
// (or bus) failure, the repair countdown, and the busy-period rebias.
func (inj *Injector) fire(lt *lifetime) {
	r := inj.r
	inj.closeSegment(lt, true)
	inj.remove(lt)
	lc, comp, unit := lt.lc, lt.comp, lt.unit
	inj.release(lt)
	if unit >= 0 {
		if r.topo.UnitFailed(unit) {
			// Already failed through an external injection; the repair
			// path rearms it.
			return
		}
		r.FailTopoUnit(unit)
	} else if lc < 0 {
		if r.bus.Failed() {
			// Already failed through an external injection; the repair
			// path rearms it.
			return
		}
		r.FailBus()
	} else {
		if r.lcs[lc].Failed(comp) {
			// Already failed (raced with an external fault injection);
			// the repair path rearms it.
			return
		}
		r.FailComponent(lc, comp)
	}
	inj.Faults++
	inj.scheduleRepair()
	if inj.bias.Enabled && !inj.damped {
		// Every failure opens or reshapes the busy period: the alive set
		// shrank, so the balanced per-component rate changes — unless the
		// rare set has been reached, in which case biasing switches off
		// for the rest of the period.
		inj.busy = true
		if inj.bias.StopWhen != nil && inj.bias.StopWhen() {
			inj.damped = true
			inj.retarget(0)
		} else {
			inj.rebias()
		}
	}
}

// closeSegment folds the likelihood contribution of the segment since the
// lifetime was last (re)armed and restarts the segment at now. A lifetime
// simulated at its true rate contributes exactly zero.
func (inj *Injector) closeSegment(lt *lifetime, fired bool) {
	now := inj.r.k.Now()
	if lt.simRate != lt.trueRate {
		if dt := float64(now - lt.armedAt); dt > 0 {
			inj.logLR += (lt.simRate - lt.trueRate) * dt
		}
		if fired {
			inj.logLR += math.Log(lt.trueRate) - math.Log(lt.simRate)
		}
	}
	lt.armedAt = now
}

// remove deletes a lifetime from the registry, preserving order.
func (inj *Injector) remove(lt *lifetime) {
	for i, p := range inj.pending {
		if p == lt {
			inj.pending = append(inj.pending[:i], inj.pending[i+1:]...)
			return
		}
	}
}

// rebias retargets every pending lifetime to the balanced busy-period
// rate: the total biased failure rate Λ' = odds(δ)·μ (or odds(δ)·Λ_alive
// without repair) split equally over the alive components.
func (inj *Injector) rebias() {
	n := len(inj.pending)
	if n == 0 {
		return
	}
	odds := inj.bias.delta() / (1 - inj.bias.delta())
	var total float64
	if inj.rates.Repair > 0 {
		total = odds * inj.rates.Repair
	} else {
		alive := 0.0
		for _, lt := range inj.pending {
			alive += lt.trueRate
		}
		total = odds * alive
	}
	inj.retarget(total / float64(n))
}

// retarget closes every open segment and redraws each pending lifetime at
// the given simulated rate (0 restores each lifetime's true rate). The
// memorylessness of the exponential makes the redraw statistically
// transparent; the segment accounting makes it measure-theoretically so.
func (inj *Injector) retarget(per float64) {
	r := inj.r
	now := r.k.Now()
	for _, lt := range inj.pending {
		inj.closeSegment(lt, false)
		if per > 0 {
			lt.simRate = per
		} else {
			lt.simRate = lt.trueRate
		}
		// Lazy reschedule, not Cancel+After: same pending event record,
		// same closure, and one queue rebuild at Commit for the whole
		// batch. The Exp draws happen at the same points in the RNG stream
		// as before, so trajectories are unchanged.
		lt.ev = r.k.RescheduleLazy(lt.ev, now+sim.Time(r.rng.Exp(lt.simRate)))
	}
	r.k.Commit()
}

// scheduleRepair starts one repair countdown if none is pending and repair
// is enabled. The repair restores every failed unit (the paper's repair
// process is one action "irrespective of the type and the number" of
// failed units) and rearms their lifetimes.
func (inj *Injector) scheduleRepair() {
	if inj.rates.Repair <= 0 || inj.repairPending {
		return
	}
	inj.repairPending = true
	r := inj.r
	if inj.repairFn == nil {
		inj.repairFn = func() {
			inj.repairPending = false
			inj.Repairs++
			if inj.bias.Enabled && inj.busy {
				// The busy period ends here: close the biased segments of the
				// surviving components and return them to their true rates
				// (already true if StopWhen damped the period).
				inj.busy = false
				if !inj.damped {
					inj.retarget(0)
				}
				inj.damped = false
			}
			// Restore the EIB first so coverage re-forms for LC repairs.
			if r.bus != nil && r.bus.Failed() {
				r.RepairBus()
				inj.armBus()
			}
			// Then the interconnect units, so data/spare reachability is
			// back before component coverage reconciles.
			inj.unitBuf = r.topo.FailedUnitsAppend(inj.unitBuf[:0])
			for _, u := range inj.unitBuf {
				r.RepairTopoUnit(u)
				inj.armUnit(u)
			}
			for i, lc := range r.lcs {
				inj.compBuf = lc.FailedComponentsAppend(inj.compBuf[:0])
				for _, c := range inj.compBuf {
					rate := inj.rateOf(c)
					r.RepairComponent(i, c)
					inj.arm(i, c, rate)
				}
			}
		}
	}
	r.k.After(simTime(r, inj.rates.Repair), inj.repairFn)
}

func (inj *Injector) rateOf(c linecard.Component) float64 {
	switch c {
	case linecard.PDLU:
		return inj.rates.PDLU
	case linecard.SRU:
		if inj.r.cfg.Arch == linecard.BDR {
			return inj.rates.SRU + inj.rates.PDLU // see Start
		}
		return inj.rates.SRU
	case linecard.LFE:
		return inj.rates.LFE
	case linecard.PIU:
		return inj.rates.PIU
	case linecard.BusController:
		return inj.rates.BC
	default:
		return 0
	}
}

// simTime draws an exponential delay from the router's RNG.
func simTime(r *Router, rate float64) sim.Time {
	return sim.Time(r.rng.Exp(rate))
}
