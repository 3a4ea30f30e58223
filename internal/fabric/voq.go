package fabric

import (
	"fmt"

	"repro/internal/packet"
)

// This file models the cell-switching discipline inside the crossbar at
// slot granularity. The paper's routers use crossbar (or multistage)
// fabrics fed by the SRUs; the two classic designs are contrasted here:
//
//   - VOQSwitch: virtual output queues with a single-iteration
//     round-robin matching (iSLIP-style) — the design shipping routers
//     use, achieving ~100% throughput under uniform traffic;
//   - FIFOSwitch: one FIFO per input, which suffers head-of-line
//     blocking and saturates near the classic 58.6% bound.
//
// Tests verify both behaviours; a benchmark compares them. The fluid
// Fabric model above remains what the dependability analyses use — these
// switches exist to make the "cells over the fabric" part of the
// architecture executable and measurable.

// VOQSwitch is a slot-synchronous input-queued crossbar with one virtual
// output queue per (input, output) pair.
type VOQSwitch struct {
	n         int
	voq       [][][]packet.Cell // voq[in][out] is a FIFO slice
	grantPtr  []int             // per-output round-robin grant pointer
	acceptPtr []int             // per-input round-robin accept pointer

	Enqueued  uint64
	Delivered uint64
	Slots     uint64
}

// NewVOQSwitch builds an n×n switch.
func NewVOQSwitch(n int) *VOQSwitch {
	if n <= 0 {
		panic("fabric: switch needs at least one port")
	}
	s := &VOQSwitch{
		n:         n,
		voq:       make([][][]packet.Cell, n),
		grantPtr:  make([]int, n),
		acceptPtr: make([]int, n),
	}
	for i := range s.voq {
		s.voq[i] = make([][]packet.Cell, n)
	}
	return s
}

// Enqueue accepts a cell into its input's VOQ.
func (s *VOQSwitch) Enqueue(c packet.Cell) error {
	if c.SrcLC < 0 || c.SrcLC >= s.n || c.DstLC < 0 || c.DstLC >= s.n {
		return fmt.Errorf("fabric: cell %d->%d outside %d-port switch", c.SrcLC, c.DstLC, s.n)
	}
	s.voq[c.SrcLC][c.DstLC] = append(s.voq[c.SrcLC][c.DstLC], c)
	s.Enqueued++
	return nil
}

// Step runs one cell slot: a single-iteration request/grant/accept
// matching, then transfers the matched cells. It returns the delivered
// cells in output order.
func (s *VOQSwitch) Step() []packet.Cell {
	s.Slots++
	n := s.n
	grantFor := make([]int, n) // output -> input granted, -1 none
	for out := 0; out < n; out++ {
		grantFor[out] = -1
		// Grant: the first requesting input at/after the grant pointer.
		for k := 0; k < n; k++ {
			in := (s.grantPtr[out] + k) % n
			if len(s.voq[in][out]) > 0 {
				grantFor[out] = in
				break
			}
		}
	}
	// Accept: each input picks the first granting output at/after its
	// accept pointer.
	acceptFor := make([]int, n) // input -> output accepted, -1 none
	for in := 0; in < n; in++ {
		acceptFor[in] = -1
		for k := 0; k < n; k++ {
			out := (s.acceptPtr[in] + k) % n
			if grantFor[out] == in {
				acceptFor[in] = out
				break
			}
		}
	}
	var delivered []packet.Cell
	for out := 0; out < n; out++ {
		in := grantFor[out]
		if in == -1 || acceptFor[in] != out {
			continue
		}
		q := s.voq[in][out]
		cell := q[0]
		s.voq[in][out] = q[1:]
		delivered = append(delivered, cell)
		s.Delivered++
		// iSLIP pointer update: only on a completed match, one past the
		// matched partner — this is what desynchronizes the pointers and
		// yields 100% throughput under uniform load.
		s.grantPtr[out] = (in + 1) % n
		s.acceptPtr[in] = (out + 1) % n
	}
	return delivered
}

// FIFOSwitch is the naive input-queued crossbar: one FIFO per input, only
// the head cell is eligible, so a blocked head blocks everything behind
// it (head-of-line blocking).
type FIFOSwitch struct {
	n        int
	fifo     [][]packet.Cell
	grantPtr []int

	Enqueued  uint64
	Delivered uint64
	Slots     uint64
}

// NewFIFOSwitch builds an n×n FIFO-input switch.
func NewFIFOSwitch(n int) *FIFOSwitch {
	if n <= 0 {
		panic("fabric: switch needs at least one port")
	}
	return &FIFOSwitch{n: n, fifo: make([][]packet.Cell, n), grantPtr: make([]int, n)}
}

// Enqueue accepts a cell into its input FIFO.
func (s *FIFOSwitch) Enqueue(c packet.Cell) error {
	if c.SrcLC < 0 || c.SrcLC >= s.n || c.DstLC < 0 || c.DstLC >= s.n {
		return fmt.Errorf("fabric: cell %d->%d outside %d-port switch", c.SrcLC, c.DstLC, s.n)
	}
	s.fifo[c.SrcLC] = append(s.fifo[c.SrcLC], c)
	s.Enqueued++
	return nil
}

// Step runs one slot: every output picks round-robin among the inputs
// whose HEAD cell targets it.
func (s *FIFOSwitch) Step() []packet.Cell {
	s.Slots++
	n := s.n
	taken := make([]bool, n) // inputs consumed this slot
	var delivered []packet.Cell
	for out := 0; out < n; out++ {
		for k := 0; k < n; k++ {
			in := (s.grantPtr[out] + k) % n
			if taken[in] || len(s.fifo[in]) == 0 {
				continue
			}
			if s.fifo[in][0].DstLC != out {
				continue // HOL blocking: only the head is eligible
			}
			delivered = append(delivered, s.fifo[in][0])
			s.fifo[in] = s.fifo[in][1:]
			s.Delivered++
			taken[in] = true
			s.grantPtr[out] = (in + 1) % n
			break
		}
	}
	return delivered
}
