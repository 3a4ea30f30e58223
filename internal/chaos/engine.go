package chaos

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/invariant"
	"repro/internal/linecard"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// settleEvents bounds the kernel drain after each campaign step — the
// control plane converges in microseconds of simulated time, far below
// any realistic step spacing (same budget as router.Scenario).
const settleEvents = 100000

// traceCapacity bounds a campaign's timeline ring.
const traceCapacity = 8192

// Options configures a campaign run. The zero value runs with a fresh
// invariant checker, no metrics, no cancellation, and no watchdog.
type Options struct {
	// Ctx cancels the run between steps; the partial result is returned
	// with the context's error.
	Ctx context.Context
	// Checker receives the invariant catalog; nil creates a private one
	// (campaigns always run under the invariant wall).
	Checker *invariant.Checker
	// Metrics, when non-nil, instruments the router, kernel, EIB, and
	// checker.
	Metrics *metrics.Registry
	// Watchdog aborts the run when a single step (including its settle
	// drain) exceeds this wall-clock budget — a runaway-model fuse for
	// unattended soaks. Zero disables it.
	Watchdog time.Duration
	// Fleet executes kill-worker/restart-worker events and answers
	// expect-workers assertions against a real drad fleet. Campaigns
	// containing fleet events refuse to run without one; campaigns
	// without them never touch it.
	Fleet FleetDriver
}

// FleetDriver is the chaos engine's hook into a drad worker fleet: it
// maps scripted fleet events onto real processes (or a test fake). The
// campaign clock is simulated, so drivers act immediately when their
// step fires.
type FleetDriver interface {
	// KillWorker forcibly stops the named worker (the real driver sends
	// SIGKILL — no drain, no lease hand-back).
	KillWorker(name string) error
	// RestartWorker boots the named worker (back) up.
	RestartWorker(name string) error
	// WorkersLive reports the coordinator's current live-worker count.
	WorkersLive() int
}

// Sample is the observed service state after one settled step.
type Sample struct {
	At    float64 `json:"at"`
	Label string  `json:"label"`
	// Up[i] is CanDeliver(i) after the step settled.
	Up []bool `json:"up"`
	// Covers[i] is LC i's covering peer (-1 when none).
	Covers []int `json:"covers"`
}

// ExpectFailure records one failed campaign assertion.
type ExpectFailure struct {
	At   float64 `json:"at"`
	LC   int     `json:"lc"`
	Want bool    `json:"want"`
	Got  bool    `json:"got"`
}

// FleetExpectFailure records one failed expect-workers assertion.
type FleetExpectFailure struct {
	At   float64 `json:"at"`
	Want int     `json:"want"`
	Got  int     `json:"got"`
}

// Result is the outcome of a campaign run.
type Result struct {
	Campaign Campaign
	// Samples holds the post-step service observations in step order.
	Samples []Sample
	// Expects lists failed assertions (empty = all held).
	Expects []ExpectFailure
	// FleetExpects lists failed expect-workers assertions.
	FleetExpects []FleetExpectFailure
	// Violations is the invariant wall's verdict.
	Violations []invariant.Violation
	// Timeline is the recorded trace (faults, repairs, coverage churn,
	// violations), Seq-ordered.
	Timeline []trace.Event
	// Metrics is the router's counter snapshot at the end of the run.
	Metrics router.Metrics
	// FinalUp is CanDeliver per LC at the horizon.
	FinalUp []bool
}

// Err returns nil when the campaign passed: no failed assertions and no
// invariant violations.
func (res *Result) Err() error {
	if len(res.Expects) > 0 {
		e := res.Expects[0]
		return fmt.Errorf("chaos: %d failed assertion(s), first: t=%g LC%d want up=%v got %v",
			len(res.Expects), e.At, e.LC, e.Want, e.Got)
	}
	if len(res.FleetExpects) > 0 {
		e := res.FleetExpects[0]
		return fmt.Errorf("chaos: %d failed fleet assertion(s), first: t=%g want %d workers got %d",
			len(res.FleetExpects), e.At, e.Want, e.Got)
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("chaos: %d invariant violation(s), first: %s", len(res.Violations), res.Violations[0])
	}
	return nil
}

// PanicError wraps a panic captured during a campaign run.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("chaos: campaign panicked: %v", p.Value) }

// step is one flattened, executable timeline entry.
type step struct {
	at    float64
	label string
	do    func(*router.Router)
	// expect, when non-nil, asserts CanDeliver(lc) == up after settle.
	expect *Event
	// fleetDo, when non-nil, acts on the fleet driver instead of the
	// router; expectWorkers asserts the live fleet size after the step.
	fleetDo       func(FleetDriver) error
	expectWorkers *int
}

// Run executes the campaign and returns its result. The run is fully
// deterministic: the same campaign produces the identical timeline,
// samples, and metrics on every run (the basis of the repro-bundle
// workflow). A panic anywhere in the model is captured and returned as
// a *PanicError alongside the partial result — never propagated.
func Run(c Campaign, opt Options) (res *Result, err error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.HasFleetEvents() && opt.Fleet == nil {
		return nil, fmt.Errorf("chaos: campaign scripts fleet events but Options.Fleet is nil")
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	chk := opt.Checker
	if chk == nil {
		chk = invariant.New()
	}

	m := c.M
	if m == 0 {
		m = c.N
	}
	arch := linecard.DRA
	if c.isBDR() {
		arch = linecard.BDR
	}
	cfg := router.UniformConfig(arch, c.N, m)
	cfg.Topology = c.topologySpec()
	cfg.Seed = c.Seed
	r, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	r.InstallUniformRoutes()
	if c.Load > 0 {
		for i := 0; i < r.NumLCs(); i++ {
			r.SetOfferedLoad(i, c.Load*r.LC(i).Capacity())
		}
	}
	tr := trace.New(traceCapacity)
	r.SetTracer(tr)
	chk.SetTrace(tr)
	chk.Instrument(opt.Metrics)
	r.AttachInvariants(chk)
	if opt.Metrics != nil {
		r.SetMetrics(opt.Metrics)
	}

	steps := c.flatten()
	res = &Result{Campaign: c}
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{Value: rec, Stack: debug.Stack()}
		}
		res.Violations = chk.Violations()
		res.Timeline = tr.Events()
		res.Metrics = r.Metrics()
		res.FinalUp = upVector(r)
	}()

	start := time.Now()
	var pktID uint64
	for _, st := range steps {
		if cerr := ctx.Err(); cerr != nil {
			return res, cerr
		}
		r.Kernel().RunUntil(sim.Time(st.at))
		if st.do != nil {
			st.do(r)
		}
		if st.fleetDo != nil {
			if ferr := st.fleetDo(opt.Fleet); ferr != nil {
				return res, fmt.Errorf("chaos: step %q: %w", st.label, ferr)
			}
		}
		r.Kernel().Run(settleEvents)
		soak(r, c, &pktID)
		if st.expectWorkers != nil {
			if got := opt.Fleet.WorkersLive(); got != *st.expectWorkers {
				res.FleetExpects = append(res.FleetExpects, FleetExpectFailure{
					At: float64(r.Kernel().Now()), Want: *st.expectWorkers, Got: got,
				})
			}
		}
		if st.expect != nil {
			got := r.CanDeliver(st.expect.LC)
			if got != *st.expect.Up {
				res.Expects = append(res.Expects, ExpectFailure{
					At: float64(r.Kernel().Now()), LC: st.expect.LC, Want: *st.expect.Up, Got: got,
				})
			}
		}
		smp := Sample{At: float64(r.Kernel().Now()), Label: st.label}
		for i := 0; i < r.NumLCs(); i++ {
			smp.Up = append(smp.Up, r.CanDeliver(i))
			smp.Covers = append(smp.Covers, r.CoverPeer(i))
		}
		res.Samples = append(res.Samples, smp)
		if opt.Watchdog > 0 && time.Since(start) > opt.Watchdog {
			return res, fmt.Errorf("chaos: watchdog expired after %v at step %q (t=%g)", opt.Watchdog, st.label, st.at)
		}
		start = time.Now()
	}
	if c.Horizon > float64(r.Kernel().Now()) {
		r.Kernel().RunUntil(sim.Time(c.Horizon))
	}
	return res, nil
}

// soakPackets is how many packets soak pushes through the router after
// each settled step.
const soakPackets = 16

// soak drives a deterministic trickle of packets through the router so
// campaigns exercise the data path — and the per-delivery packet
// conservation invariant — under every fault state, not just the
// control plane. Sources and destinations rotate round-robin; the
// router's own seeded RNG handles everything below Deliver.
func soak(r *router.Router, c Campaign, pktID *uint64) {
	if c.Load <= 0 {
		return
	}
	n := r.NumLCs()
	for i := 0; i < soakPackets; i++ {
		src := int(*pktID) % n
		dst := (src + 1 + int(*pktID/uint64(n))%(n-1)) % n
		r.Deliver(&packet.Packet{
			ID:    *pktID,
			SrcLC: src,
			DstIP: workload.PrefixFor(dst) | 0x123,
			DstLC: -1,
			Proto: r.LC(src).Protocol(),
			Bytes: 1500,
		})
		*pktID++
	}
}

// flatten expands the campaign into an executable, time-sorted step
// list: transients split into a fault and a self-clear, common-mode
// events apply their sub-events in one instant, and the deferred repair
// policy inserts periodic maintenance visits.
func (c Campaign) flatten() []step {
	var steps []step
	end := c.Horizon
	for _, e := range c.Events {
		t := e.At
		if strings.EqualFold(e.Kind, "transient") {
			t = e.At + e.ClearAfter
		}
		if t > end {
			end = t
		}
	}
	for _, e := range c.Events {
		steps = append(steps, c.expand(e)...)
	}
	if c.Repair != nil {
		for t := c.Repair.Interval; t <= end; t += c.Repair.Interval {
			steps = append(steps, step{at: t, label: fmt.Sprintf("deferred repair visit t=%g", t), do: repairEverything})
		}
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	return steps
}

// expand turns one campaign event into executable steps.
func (c Campaign) expand(e Event) []step {
	switch strings.ToLower(e.Kind) {
	case "fail":
		comp, _ := parseComponent(e.Component)
		return []step{{at: e.At, label: fmt.Sprintf("fail LC%d %v", e.LC, comp),
			do: func(r *router.Router) { r.FailComponent(e.LC, comp) }}}
	case "repair-component":
		comp, _ := parseComponent(e.Component)
		return []step{{at: e.At, label: fmt.Sprintf("repair LC%d %v", e.LC, comp),
			do: func(r *router.Router) { r.RepairComponent(e.LC, comp) }}}
	case "repair":
		return []step{{at: e.At, label: fmt.Sprintf("repair LC%d", e.LC),
			do: func(r *router.Router) { r.RepairLC(e.LC) }}}
	case "fail-bus":
		return []step{{at: e.At, label: "fail EIB", do: func(r *router.Router) { r.FailBus() }}}
	case "repair-bus":
		return []step{{at: e.At, label: "repair EIB", do: func(r *router.Router) { r.RepairBus() }}}
	case "fail-fabric-card":
		return []step{{at: e.At, label: fmt.Sprintf("fail fabric card %d", e.Card),
			do: func(r *router.Router) { r.Fabric().FailCard(e.Card) }}}
	case "repair-fabric-card":
		return []step{{at: e.At, label: fmt.Sprintf("repair fabric card %d", e.Card),
			do: func(r *router.Router) { r.Fabric().RepairCard(e.Card) }}}
	case "fail-fabric-port":
		return []step{{at: e.At, label: fmt.Sprintf("fail fabric port %d", e.LC),
			do: func(r *router.Router) { r.Fabric().FailPort(e.LC) }}}
	case "repair-fabric-port":
		return []step{{at: e.At, label: fmt.Sprintf("repair fabric port %d", e.LC),
			do: func(r *router.Router) { r.Fabric().RepairPort(e.LC) }}}
	case "fail-unit":
		return []step{{at: e.At, label: fmt.Sprintf("fail topology unit %d", e.Unit),
			do: func(r *router.Router) { r.FailTopoUnit(e.Unit) }}}
	case "repair-unit":
		return []step{{at: e.At, label: fmt.Sprintf("repair topology unit %d", e.Unit),
			do: func(r *router.Router) { r.RepairTopoUnit(e.Unit) }}}
	case "fail-protocol-group":
		comp, _ := parseComponent(e.Component)
		proto, _ := parseProtocol(e.Protocol)
		return []step{{at: e.At, label: fmt.Sprintf("fail all %s %v", e.Protocol, comp),
			do: func(r *router.Router) {
				for i := 0; i < r.NumLCs(); i++ {
					if r.LC(i).Protocol() == proto {
						r.FailComponent(i, comp)
					}
				}
			}}}
	case "common-mode":
		subs := make([]func(*router.Router), 0, len(e.Sub))
		labels := make([]string, 0, len(e.Sub))
		// Sub steps at the parent instant merge into one action; later
		// ones (a transient sub event's self-clear) stay separate steps.
		var later []step
		for _, s := range e.Sub {
			s.At = e.At
			for _, st := range c.expand(s) {
				if st.at == e.At && st.do != nil {
					subs = append(subs, st.do)
					labels = append(labels, st.label)
				} else if st.at > e.At {
					later = append(later, st)
				}
			}
		}
		out := []step{{at: e.At, label: "common-mode: " + strings.Join(labels, ", "),
			do: func(r *router.Router) {
				for _, do := range subs {
					do(r)
				}
			}}}
		return append(out, later...)
	case "transient":
		comp, _ := parseComponent(e.Component)
		return []step{
			{at: e.At, label: fmt.Sprintf("transient fail LC%d %v", e.LC, comp),
				do: func(r *router.Router) { r.FailComponent(e.LC, comp) }},
			{at: e.At + e.ClearAfter, label: fmt.Sprintf("transient clear LC%d %v", e.LC, comp),
				do: func(r *router.Router) { r.RepairComponent(e.LC, comp) }},
		}
	case "repair-storm":
		return []step{{at: e.At, label: "repair storm", do: repairEverything}}
	case "kill-worker":
		name := e.Worker
		return []step{{at: e.At, label: fmt.Sprintf("kill worker %s", name),
			fleetDo: func(d FleetDriver) error { return d.KillWorker(name) }}}
	case "restart-worker":
		name := e.Worker
		return []step{{at: e.At, label: fmt.Sprintf("restart worker %s", name),
			fleetDo: func(d FleetDriver) error { return d.RestartWorker(name) }}}
	case "expect-workers":
		want := *e.Workers
		return []step{{at: e.At, label: fmt.Sprintf("expect %d workers live", want),
			expectWorkers: &want}}
	case "expect":
		ec := e
		return []step{{at: e.At, label: fmt.Sprintf("expect LC%d up=%v", e.LC, *e.Up), expect: &ec}}
	}
	return nil
}

// repairEverything is the batched maintenance visit: every failed unit
// across LCs, the EIB lines, the topology interconnect, and the fabric
// is restored in one action.
func repairEverything(r *router.Router) {
	for i := 0; i < r.NumLCs(); i++ {
		if len(r.LC(i).FailedComponents()) > 0 {
			r.RepairLC(i)
		}
	}
	if r.Bus() != nil && r.Bus().Failed() {
		r.RepairBus()
	}
	for u, g := 0, r.Topology(); u < g.Units(); u++ {
		if g.UnitFailed(u) {
			r.RepairTopoUnit(u)
		}
	}
	fab := r.Fabric()
	for card := 0; card < fab.Config().Cards; card++ {
		fab.RepairCard(card)
	}
	for lc := 0; lc < r.NumLCs(); lc++ {
		fab.RepairPort(lc)
	}
}

func upVector(r *router.Router) []bool {
	up := make([]bool, r.NumLCs())
	for i := range up {
		up[i] = r.CanDeliver(i)
	}
	return up
}
