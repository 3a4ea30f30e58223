package eib

import (
	"fmt"

	"repro/internal/sim"
)

// Controller is one LC's bus controller running the EIB protocol state
// machine. The router wires its policy in through the three callbacks:
//
//   - AcceptData decides whether this LC answers a REQ_D with a REP_D
//     (it checks protocol compatibility, component health, and spare
//     capacity — the processing-tier checks of Section 4).
//   - ServeLookup answers REQ_L packets when the LC can cover lookups.
//   - OnRelease observes REL_D packets so the covering side can tear down
//     per-stream state.
type Controller struct {
	bus *Bus
	lc  int

	AcceptData  func(ControlPacket) bool
	ServeLookup func(addr uint32) (egress int, ok bool)
	OnRelease   func(ControlPacket)

	// pending request state (one outstanding exchange per controller, as
	// a simple bus controller would implement).
	reqSeq     int
	waitingReq int // sequence number awaiting a reply; 0 when idle
	onAccept   func(rec int)
	onLookup   func(egress int, ok bool)
	timeout    sim.Timer

	// RepliesSent counts REP_D/REP_L emitted for peers.
	RepliesSent uint64
}

// NewController attaches a controller for LC lc to the bus.
func NewController(bus *Bus, lc int) *Controller {
	c := &Controller{bus: bus, lc: lc}
	bus.Attach(lc, c.handle)
	return c
}

// Detach removes the controller from the bus (bus-controller failure).
func (c *Controller) Detach() { c.bus.Detach(c.lc) }

// Reattach restores the controller after repair.
func (c *Controller) Reattach() { c.bus.Attach(c.lc, c.handle) }

// handle processes every control packet visible to this controller.
func (c *Controller) handle(p ControlPacket) {
	switch p.Type {
	case REQD:
		if p.Init == c.lc {
			return // own broadcast
		}
		if c.AcceptData != nil && c.AcceptData(p) {
			reply := ControlPacket{
				Type:            REPD,
				Init:            c.lc,
				Rec:             p.Init,
				Direction:       p.Direction,
				FaultyComponent: p.FaultyComponent,
				Proto:           p.Proto,
				DataRate:        p.DataRate,
			}
			// Contend for the control lines; losing simply means another
			// candidate's REP_D arrives first and ours is ignored by the
			// initiator (the paper's "terminate their own REP_D
			// broadcasts" is an optimization over the same outcome).
			if err := c.bus.Broadcast(reply, nil); err == nil {
				c.RepliesSent++
			}
		}
	case REPD:
		if p.Rec != c.lc || c.waitingReq == 0 || c.onAccept == nil {
			return
		}
		done := c.onAccept
		c.clearPending()
		done(p.Init)
	case REQL:
		if p.Init == c.lc || c.ServeLookup == nil {
			return
		}
		if egress, ok := c.ServeLookup(p.LookupAddr); ok {
			reply := ControlPacket{
				Type:         REPL,
				Init:         c.lc,
				Rec:          p.Init,
				LookupAddr:   p.LookupAddr,
				LookupResult: egress,
			}
			if err := c.bus.Broadcast(reply, nil); err == nil {
				c.RepliesSent++
			}
		}
	case REPL:
		if p.Rec != c.lc || c.waitingReq == 0 || c.onLookup == nil {
			return
		}
		done := c.onLookup
		c.clearPending()
		done(p.LookupResult, true)
	case RELD:
		if c.OnRelease != nil && p.Init != c.lc {
			c.OnRelease(p)
		}
	}
}

func (c *Controller) clearPending() {
	c.waitingReq = 0
	c.onAccept = nil
	c.onLookup = nil
	c.bus.k.Cancel(c.timeout)
	c.timeout = sim.Timer{}
}

// replyWindow is how long an initiator waits for replies before declaring
// no coverage: enough slots for every attached controller to contend and
// answer even with maximum backoff.
func (c *Controller) replyWindow() sim.Time {
	n := len(c.bus.handlers) + 2
	return sim.Time(float64(n*(1<<uint(c.bus.cfg.MaxBackoffExp))) * c.bus.cfg.CtrlSlot)
}

// RequestData runs the forward/reverse-path REQ_D handshake: broadcast the
// request, wait for the first REP_D, and invoke done with the accepting LC
// (or fail after the reply window with ErrNoCoverage).
func (c *Controller) RequestData(p ControlPacket, done func(rec int), fail func(error)) {
	if c.waitingReq != 0 {
		fail(fmt.Errorf("eib: controller %d already has an exchange in flight", c.lc))
		return
	}
	p.Type = REQD
	p.Init = c.lc
	c.reqSeq++
	c.waitingReq = c.reqSeq
	c.onAccept = done
	if err := c.bus.Broadcast(p, nil); err != nil {
		c.clearPending()
		fail(err)
		return
	}
	c.timeout = c.bus.k.After(c.replyWindow(), func() {
		if c.waitingReq != 0 {
			c.clearPending()
			fail(ErrNoCoverage)
		}
	})
}

// RequestLookup runs the REQ_L/REP_L exchange for a failed local LFE. done
// receives the egress LC; fail runs when no healthy LFE answers within the
// reply window.
func (c *Controller) RequestLookup(addr uint32, done func(egress int), fail func(error)) {
	if c.waitingReq != 0 {
		fail(fmt.Errorf("eib: controller %d already has an exchange in flight", c.lc))
		return
	}
	p := ControlPacket{Type: REQL, Init: c.lc, Rec: Broadcast, LookupAddr: addr}
	c.reqSeq++
	c.waitingReq = c.reqSeq
	c.onLookup = func(egress int, ok bool) { done(egress) }
	if err := c.bus.Broadcast(p, nil); err != nil {
		c.clearPending()
		fail(err)
		return
	}
	c.timeout = c.bus.k.After(c.replyWindow(), func() {
		if c.waitingReq != 0 {
			c.clearPending()
			fail(ErrNoCoverage)
		}
	})
}

// Release broadcasts an REL_D for the given LP and closes it.
func (c *Controller) Release(lp *LP) error {
	err := c.bus.Broadcast(ControlPacket{Type: RELD, Init: c.lc, Rec: Broadcast, LPID: lp.ID}, nil)
	c.bus.CloseLP(lp.ID)
	return err
}
