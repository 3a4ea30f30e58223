package packet

import "fmt"

// Reassembler rebuilds packets from interleaved cell streams, as the SRU of
// an egress linecard does. Cells from different packets may interleave
// arbitrarily; cells of one packet must arrive in order (the fabric and the
// EIB both preserve per-flow order in this model).
//
// The reassembler owns all of its storage: in-progress assemblies are
// recycled through a free list and the completed packet returned by Add is
// a scratch value that stays valid only until the next Add or Abort call.
// Callers that need the packet longer must copy it. The steady-state
// reassembly loop therefore allocates nothing.
type Reassembler struct {
	pending map[uint64]*assembly
	free    []*assembly
	done    Packet
	// Completed counts fully reassembled packets; Dropped counts packets
	// abandoned due to protocol errors (out-of-order or inconsistent
	// cells).
	Completed uint64
	Dropped   uint64
}

type assembly struct {
	pkt      Packet
	next     int
	total    int
	gotBytes int
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: make(map[uint64]*assembly)}
}

// alloc takes an assembly from the free list or the heap.
func (r *Reassembler) alloc() *assembly {
	if n := len(r.free); n > 0 {
		a := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		*a = assembly{}
		return a
	}
	return &assembly{}
}

// recycle deletes the packet's assembly and returns it to the free list.
func (r *Reassembler) recycle(id uint64, a *assembly) {
	delete(r.pending, id)
	r.free = append(r.free, a)
}

// Add consumes one cell. When the cell completes a packet, the reassembled
// packet metadata is returned; the pointer refers to the reassembler's
// scratch packet and is only valid until the next Add or Abort. A protocol
// violation drops the whole in-progress packet and returns an error.
func (r *Reassembler) Add(c Cell) (*Packet, error) {
	a, ok := r.pending[c.PacketID]
	if !ok {
		if c.Seq != 0 {
			r.Dropped++
			return nil, fmt.Errorf("packet: first cell of %d has seq %d", c.PacketID, c.Seq)
		}
		a = r.alloc()
		a.pkt = Packet{ID: c.PacketID, SrcLC: c.SrcLC, DstLC: c.DstLC}
		a.total = c.Total
		r.pending[c.PacketID] = a
	}
	if c.Seq != a.next || c.Total != a.total {
		r.recycle(c.PacketID, a)
		r.Dropped++
		return nil, fmt.Errorf("packet: cell %d/%d of packet %d violates order (want seq %d, total %d)",
			c.Seq, c.Total, c.PacketID, a.next, a.total)
	}
	a.next++
	a.gotBytes += c.Bytes
	if c.Last {
		if a.next != a.total {
			r.recycle(c.PacketID, a)
			r.Dropped++
			return nil, fmt.Errorf("packet: last cell of %d at seq %d but total is %d", c.PacketID, c.Seq, a.total)
		}
		r.done = a.pkt
		r.done.Bytes = a.gotBytes
		r.recycle(c.PacketID, a)
		r.Completed++
		return &r.done, nil
	}
	return nil, nil
}

// Abort discards any partial state for the given packet, as happens when an
// SRU loses its peer mid-packet. It reports whether state existed.
func (r *Reassembler) Abort(packetID uint64) bool {
	if a, ok := r.pending[packetID]; ok {
		r.recycle(packetID, a)
		r.Dropped++
		return true
	}
	return false
}
