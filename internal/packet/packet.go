// Package packet defines the traffic units that flow through the router
// model: variable-length packets with L2/L3 header information, the
// fixed-length cells that the SRU segments packets into for transfer over
// the switching fabric, and the segmentation-and-reassembly (SAR) logic
// itself.
package packet

import "fmt"

// Protocol identifies the Layer-2 protocol of a linecard port. Under DRA
// all protocol-dependent handling lives in the PDLU; a PDLU failure can
// only be covered by a linecard whose PDLU implements the same protocol.
type Protocol uint8

// The protocol set used throughout the reproduction. The specific values
// are placeholders for "different LC types" — what matters to DRA is only
// same-vs-different.
const (
	ProtoEthernet Protocol = iota
	ProtoSONET
	ProtoATM
	ProtoFrameRelay
	numProtocols
)

// NumProtocols is the count of defined protocols.
const NumProtocols = int(numProtocols)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoEthernet:
		return "Ethernet"
	case ProtoSONET:
		return "SONET"
	case ProtoATM:
		return "ATM"
	case ProtoFrameRelay:
		return "FrameRelay"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// Packet is a variable-length datagram in flight through the router.
type Packet struct {
	ID      uint64
	SrcLC   int      // ingress linecard
	SrcPort int      // ingress port on that linecard
	DstIP   uint32   // L3 destination, consumed by LFE lookup
	DstLC   int      // egress linecard, set after lookup (-1 before)
	Proto   Protocol // L2 protocol of the ingress link
	Bytes   int      // payload length in bytes

	// Arrived is the ingress timestamp in simulation time units; Delivered
	// is set on egress. Both are tracked for latency accounting.
	Arrived   float64
	Delivered float64
}

// CellPayload is the number of payload bytes carried per fabric cell. The
// value matches the common 64-byte internal cell with 16 bytes of header
// used by shipping fabric designs; the exact number only scales cell
// counts.
const CellPayload = 48

// Cell is a fixed-length unit produced by the SRU for transfer across the
// switching fabric.
type Cell struct {
	PacketID uint64
	SrcLC    int
	DstLC    int
	Seq      int // cell index within the packet, 0-based
	Total    int // total cells of the packet
	Last     bool
	Bytes    int // payload bytes carried (≤ CellPayload; < only in the last cell)
}

// CellsFor returns the number of cells needed for a payload of n bytes.
// Zero-length packets still take one cell (the header must travel).
func CellsFor(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + CellPayload - 1) / CellPayload
}

// SegmentAppend appends p's fabric cells to buf and returns the extended
// slice, reusing buf's capacity — the zero-alloc form of Segment. Callers
// typically keep one scratch buffer and pass buf[:0].
func SegmentAppend(buf []Cell, p *Packet) []Cell {
	AssertLive(p)
	if p.DstLC < 0 {
		panic("packet: Segment before lookup — DstLC unset")
	}
	n := CellsFor(p.Bytes)
	remaining := p.Bytes
	for i := 0; i < n; i++ {
		sz := CellPayload
		if remaining < sz {
			sz = remaining
		}
		if p.Bytes <= 0 {
			sz = 0
		}
		buf = append(buf, Cell{
			PacketID: p.ID,
			SrcLC:    p.SrcLC,
			DstLC:    p.DstLC,
			Seq:      i,
			Total:    n,
			Last:     i == n-1,
			Bytes:    sz,
		})
		remaining -= sz
	}
	return buf
}
