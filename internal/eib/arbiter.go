package eib

import "fmt"

// This file implements the distributed round-robin TDM arbitration of the
// data lines (paper Section 4, "EIB Scheduling and Arbitration" and
// Figure 4). Every LC's bus controller keeps three counters:
//
//	ctrID   — the unique ID assigned to this controller's LP, in LP
//	          establishment order (1-based); 0 when it holds no LP
//	ctrR    — the shared rotation counter
//	ctrBeta — β, the number of LPs currently sharing the data lines
//
// Turn-taking: the controller whose ID equals ctrR transmits; completing a
// turn lowers the control line L_t, which every controller observes by
// decrementing ctrR. When ctrR reaches zero the line L_p is raised and all
// controllers reload ctrR with β, so the most recently added LP (ID = β)
// transmits first in each rotation, as Figure 4 shows. Releasing LP id₀
// broadcasts id₀ in the REL_D; every controller decrements β, and
// controllers whose ID exceeds id₀ decrement their ID.
//
// The Arbiter below instantiates one CounterSet per participating bus
// controller and delivers the broadcast signals to each, so the tests can
// assert that every controller independently reaches the same view — the
// property that makes the scheme distributed.

// CounterSet is the per-bus-controller counter state.
type CounterSet struct {
	ctrID   int
	ctrR    int
	ctrBeta int
}

// ID returns the controller's LP id (0 = no LP).
func (c *CounterSet) ID() int { return c.ctrID }

// MyTurn reports whether this controller's LP transmits now.
func (c *CounterSet) MyTurn() bool { return c.ctrID != 0 && c.ctrID == c.ctrR }

// observeEstablish processes a new LP establishment broadcast. The
// establishing controller passes mine=true and receives the new ID.
func (c *CounterSet) observeEstablish(mine bool) {
	c.ctrBeta++
	if mine {
		c.ctrID = c.ctrBeta
	}
	// A new LP joins at the end of the current rotation; if the data
	// lines were idle (rotation exhausted), restart the rotation so the
	// newcomer — the highest ID — goes first, per Figure 4.
	if c.ctrR == 0 {
		c.ctrR = c.ctrBeta
	}
}

// observeTurnComplete processes the lowering of L_t: the current holder
// finished transmitting its buffered data.
func (c *CounterSet) observeTurnComplete() {
	if c.ctrR > 0 {
		c.ctrR--
	}
}

// observeRotationReload processes the raising of L_p (some ctrR hit zero):
// reload the rotation counter with β.
func (c *CounterSet) observeRotationReload() { c.ctrR = c.ctrBeta }

// observeRelease processes an REL_D carrying id0.
func (c *CounterSet) observeRelease(id0 int) {
	if c.ctrBeta > 0 {
		c.ctrBeta--
	}
	if c.ctrID > id0 {
		c.ctrID--
	} else if c.ctrID == id0 {
		c.ctrID = 0
	}
	if c.ctrR > c.ctrBeta {
		c.ctrR = c.ctrBeta
	}
}

// Arbiter wires the counter sets of all bus controllers to the shared
// control-line signals and drives the slot-by-slot schedule. It is the
// reference realization of Figure 4 used by tests and by the slot-accurate
// bench; the fluid bandwidth model in bus.go is what the router-scale
// simulation uses.
type Arbiter struct {
	sets map[int]*CounterSet // keyed by LC index
	// order tracks LP establishment order for diagnostics.
	establishOrder []int
}

// NewArbiter creates an arbiter over the given LC indices.
func NewArbiter(lcs []int) *Arbiter {
	a := &Arbiter{sets: make(map[int]*CounterSet, len(lcs))}
	for _, lc := range lcs {
		a.sets[lc] = &CounterSet{}
	}
	return a
}

// Counters exposes the counter set of one LC, for assertions.
func (a *Arbiter) Counters(lc int) *CounterSet {
	s, ok := a.sets[lc]
	if !ok {
		panic(fmt.Sprintf("eib: LC %d not on the arbiter", lc))
	}
	return s
}

// Establish registers a new LP initiated by lc and returns its assigned
// ID. Every controller observes the establishment broadcast.
func (a *Arbiter) Establish(lc int) int {
	init := a.Counters(lc)
	if init.ctrID != 0 {
		panic(fmt.Sprintf("eib: LC %d already holds LP %d", lc, init.ctrID))
	}
	for other, s := range a.sets {
		s.observeEstablish(other == lc)
	}
	a.establishOrder = append(a.establishOrder, lc)
	return init.ctrID
}

// Release tears down the LP held by lc, broadcasting its ID.
func (a *Arbiter) Release(lc int) {
	init := a.Counters(lc)
	id0 := init.ctrID
	if id0 == 0 {
		panic(fmt.Sprintf("eib: LC %d holds no LP", lc))
	}
	for _, s := range a.sets {
		s.observeRelease(id0)
	}
}

// Current returns the LC whose LP transmits in the current slot, or -1
// when no LP is active.
func (a *Arbiter) Current() int {
	for lc, s := range a.sets {
		if s.MyTurn() {
			return lc
		}
	}
	return -1
}

// CompleteTurn signals that the current holder finished its buffered data
// (L_t lowered), advancing the rotation, and reloads the rotation counter
// (L_p) when it expires. It returns the next transmitting LC, or -1 when
// no LPs remain.
func (a *Arbiter) CompleteTurn() int {
	cur := a.Current()
	if cur == -1 {
		return -1
	}
	for _, s := range a.sets {
		s.observeTurnComplete()
	}
	// If the rotation expired, raise L_p: reload every counter with β.
	expired := false
	for _, s := range a.sets {
		if s.ctrR == 0 {
			expired = true
			break
		}
	}
	if expired && a.beta() > 0 {
		for _, s := range a.sets {
			s.observeRotationReload()
		}
	}
	return a.Current()
}

// Consistent verifies that every controller holds the same β and rotation
// counter — the distributed-consistency invariant. It returns an error
// naming the first divergence.
func (a *Arbiter) Consistent() error {
	var beta, rot = -1, -1
	for lc, s := range a.sets {
		if beta == -1 {
			beta, rot = s.ctrBeta, s.ctrR
			continue
		}
		if s.ctrBeta != beta {
			return fmt.Errorf("eib: LC %d sees β=%d, others %d", lc, s.ctrBeta, beta)
		}
		if s.ctrR != rot {
			return fmt.Errorf("eib: LC %d sees rotation=%d, others %d", lc, s.ctrR, rot)
		}
	}
	return nil
}

func (a *Arbiter) beta() int {
	for _, s := range a.sets {
		return s.ctrBeta
	}
	return 0
}

// Schedule runs n turn-completions and returns the sequence of
// transmitting LCs, starting with the current holder. It is the Figure 4
// trace generator.
func (a *Arbiter) Schedule(n int) []int {
	var out []int
	cur := a.Current()
	for i := 0; i < n && cur != -1; i++ {
		out = append(out, cur)
		cur = a.CompleteTurn()
	}
	return out
}
