package packet

import (
	"testing"
	"testing/quick"
)

func TestCellsFor(t *testing.T) {
	cases := []struct{ bytes, want int }{
		{0, 1}, {1, 1}, {CellPayload, 1}, {CellPayload + 1, 2},
		{10 * CellPayload, 10}, {10*CellPayload + 7, 11},
	}
	for _, c := range cases {
		if got := CellsFor(c.bytes); got != c.want {
			t.Fatalf("CellsFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestSegmentBasics(t *testing.T) {
	p := &Packet{ID: 7, SrcLC: 1, DstLC: 3, Bytes: CellPayload*2 + 5}
	cells := Segment(p)
	if len(cells) != 3 {
		t.Fatalf("len(cells) = %d", len(cells))
	}
	total := 0
	for i, c := range cells {
		if c.PacketID != 7 || c.SrcLC != 1 || c.DstLC != 3 {
			t.Fatalf("cell %d header wrong: %+v", i, c)
		}
		if c.Seq != i || c.Total != 3 {
			t.Fatalf("cell %d seq/total wrong: %+v", i, c)
		}
		if c.Last != (i == 2) {
			t.Fatalf("cell %d Last flag wrong", i)
		}
		total += c.Bytes
	}
	if total != p.Bytes {
		t.Fatalf("cells carry %d bytes, want %d", total, p.Bytes)
	}
}

func TestSegmentWithoutLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Segment(&Packet{ID: 1, DstLC: -1})
}

func TestSegmentZeroLength(t *testing.T) {
	cells := Segment(&Packet{ID: 1, DstLC: 0, Bytes: 0})
	if len(cells) != 1 || !cells[0].Last || cells[0].Bytes != 0 {
		t.Fatalf("zero-length segmentation = %+v", cells)
	}
}

func TestReassembleRoundTrip(t *testing.T) {
	r := NewReassembler()
	p := &Packet{ID: 42, SrcLC: 2, DstLC: 5, Bytes: 1500}
	cells := Segment(p)
	for i, c := range cells {
		out, err := r.Add(c)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(cells)-1 && out != nil {
			t.Fatal("packet completed early")
		}
		if i == len(cells)-1 {
			if out == nil {
				t.Fatal("packet did not complete")
			}
			if out.ID != 42 || out.Bytes != 1500 || out.SrcLC != 2 || out.DstLC != 5 {
				t.Fatalf("reassembled packet wrong: %+v", out)
			}
		}
	}
	if r.Completed != 1 || r.Dropped != 0 || r.Pending() != 0 {
		t.Fatalf("counters: %+v pending=%d", r, r.Pending())
	}
}

func TestReassembleInterleavedFlows(t *testing.T) {
	r := NewReassembler()
	a := Segment(&Packet{ID: 1, DstLC: 0, Bytes: 3 * CellPayload})
	b := Segment(&Packet{ID: 2, DstLC: 0, Bytes: 3 * CellPayload})
	order := []Cell{a[0], b[0], b[1], a[1], a[2], b[2]}
	var done []uint64
	for _, c := range order {
		out, err := r.Add(c)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			done = append(done, out.ID)
		}
	}
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("completion order = %v", done)
	}
}

func TestReassembleRejectsMidStreamStart(t *testing.T) {
	r := NewReassembler()
	cells := Segment(&Packet{ID: 9, DstLC: 0, Bytes: 2 * CellPayload})
	if _, err := r.Add(cells[1]); err == nil {
		t.Fatal("expected error for mid-stream first cell")
	}
	if r.Dropped != 1 {
		t.Fatalf("Dropped = %d", r.Dropped)
	}
}

func TestReassembleRejectsOutOfOrder(t *testing.T) {
	r := NewReassembler()
	cells := Segment(&Packet{ID: 9, DstLC: 0, Bytes: 3 * CellPayload})
	if _, err := r.Add(cells[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(cells[2]); err == nil {
		t.Fatal("expected error for skipped cell")
	}
	// State must be cleared: resending from scratch works.
	for i, c := range Segment(&Packet{ID: 9, DstLC: 0, Bytes: 3 * CellPayload}) {
		out, err := r.Add(c)
		if err != nil {
			t.Fatalf("resend cell %d: %v", i, err)
		}
		if i == 2 && out == nil {
			t.Fatal("resent packet did not complete")
		}
	}
}

func TestReassembleAbort(t *testing.T) {
	r := NewReassembler()
	cells := Segment(&Packet{ID: 4, DstLC: 0, Bytes: 2 * CellPayload})
	if _, err := r.Add(cells[0]); err != nil {
		t.Fatal(err)
	}
	if !r.Abort(4) {
		t.Fatal("Abort found no state")
	}
	if r.Abort(4) {
		t.Fatal("second Abort found state")
	}
	if r.Pending() != 0 || r.Dropped != 1 {
		t.Fatalf("pending=%d dropped=%d", r.Pending(), r.Dropped)
	}
}

// Property: Segment/Reassemble is the identity on (ID, byte count) for any
// packet size, and produces ⌈bytes/CellPayload⌉ cells.
func TestSARRoundTripProperty(t *testing.T) {
	f := func(id uint64, rawBytes uint16) bool {
		bytes := int(rawBytes)
		p := &Packet{ID: id, SrcLC: 1, DstLC: 2, Bytes: bytes}
		cells := Segment(p)
		if len(cells) != CellsFor(bytes) {
			return false
		}
		r := NewReassembler()
		for i, c := range cells {
			out, err := r.Add(c)
			if err != nil {
				return false
			}
			if i == len(cells)-1 {
				return out != nil && out.ID == id && out.Bytes == bytes
			}
			if out != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoEthernet.String() != "Ethernet" || ProtoATM.String() != "ATM" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(99).String() != "Protocol(99)" {
		t.Fatal("unknown protocol formatting wrong")
	}
	if NumProtocols != 4 {
		t.Fatalf("NumProtocols = %d", NumProtocols)
	}
}

// Segment splits p into fabric cells addressed to p.DstLC. It panics if the
// packet has not been through lookup (DstLC < 0) because cells would be
// unroutable. Hot paths should prefer SegmentAppend with a reused buffer.
func Segment(p *Packet) []Cell { return SegmentAppend(nil, p) }

// Pending returns the number of partially reassembled packets.
func (r *Reassembler) Pending() int { return len(r.pending) }
