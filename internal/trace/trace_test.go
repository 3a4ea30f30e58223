package trace

import (
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: Fault})
	if r.Len() != 0 || r.Count(Fault) != 0 || r.Events() != nil || r.Filter(func(Event) bool { return true }) != nil {
		t.Fatal("nil recorder misbehaved")
	}
}

func TestRecordAndCounts(t *testing.T) {
	r := New(8)
	r.Record(Event{At: 1, Kind: Fault, LC: 0, Peer: -1, Detail: "SRU"})
	r.Record(Event{At: 2, Kind: CoverageUp, LC: 0, Peer: 1})
	r.Record(Event{At: 3, Kind: Repair, LC: 0, Peer: -1})
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Count(Fault) != 1 || r.Count(CoverageUp) != 1 || r.Count(Drop) != 0 {
		t.Fatal("counts wrong")
	}
	es := r.Events()
	if es[0].At != 1 || es[2].At != 3 {
		t.Fatalf("order wrong: %v", es)
	}
}

func TestRingEviction(t *testing.T) {
	r := New(3)
	for i := 0; i < 7; i++ {
		r.Record(Event{At: float64(i), Kind: Drop})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	es := r.Events()
	if es[0].At != 4 || es[1].At != 5 || es[2].At != 6 {
		t.Fatalf("ring kept wrong window: %v", es)
	}
	if r.Count(Drop) != 7 {
		t.Fatalf("lifetime count = %d", r.Count(Drop))
	}
}

func TestFilterAndDump(t *testing.T) {
	r := New(10)
	r.Record(Event{At: 1, Kind: Fault, LC: 2, Peer: -1, Detail: "LFE"})
	r.Record(Event{At: 2, Kind: Drop, LC: -1, Peer: -1, Detail: "no route"})
	faults := r.Filter(func(e Event) bool { return e.Kind == Fault })
	if len(faults) != 1 || faults[0].LC != 2 {
		t.Fatalf("filter = %v", faults)
	}
	d := r.Dump()
	if !strings.Contains(d, "fault") || !strings.Contains(d, "LC2") || !strings.Contains(d, "no route") {
		t.Fatalf("dump:\n%s", d)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Fault: "fault", Repair: "repair", CoverageUp: "coverage-up",
		CoverageDown: "coverage-down", BusDown: "bus-down", BusUp: "bus-up", Drop: "drop",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d -> %q", k, k.String())
		}
	}
	if !strings.Contains(Kind(77).String(), "77") {
		t.Fatal("unknown kind formatting")
	}
}

func TestClockStampsZeroTimeEvents(t *testing.T) {
	r := New(4)
	now := 7.5
	r.SetClock(func() float64 { return now })
	r.Record(Event{Kind: Fault})
	now = 9
	r.Record(Event{Kind: Repair})
	r.Record(Event{At: 2, Kind: Drop}) // explicit At wins over the clock
	es := r.Events()
	if es[0].At != 7.5 || es[1].At != 9 || es[2].At != 2 {
		t.Fatalf("stamps = %v %v %v", es[0].At, es[1].At, es[2].At)
	}
	var nilR *Recorder
	nilR.SetClock(func() float64 { return 1 }) // must not panic
}

func TestSeqIsMonotonic(t *testing.T) {
	r := New(2) // small ring: eviction must not reuse sequence numbers
	for i := 0; i < 5; i++ {
		r.Record(Event{At: 1, Kind: Drop})
	}
	es := r.Events()
	if es[0].Seq != 3 || es[1].Seq != 4 {
		t.Fatalf("seqs = %d %d", es[0].Seq, es[1].Seq)
	}
}

func TestDumpOrderIsStable(t *testing.T) {
	// Events recorded out of time order (delayed callbacks do this):
	// Dump must sort by At, with recording order breaking the tie.
	r := New(8)
	r.Record(Event{At: 5, Kind: Repair, LC: 1, Peer: -1})
	r.Record(Event{At: 1, Kind: Fault, LC: 0, Peer: -1, Detail: "SRU"})
	r.Record(Event{At: 1, Kind: Fault, LC: 2, Peer: -1, Detail: "PDLU"})
	d := r.Dump()
	lines := strings.Split(strings.TrimSpace(d), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump:\n%s", d)
	}
	if !strings.Contains(lines[0], "LC0") || !strings.Contains(lines[1], "LC2") || !strings.Contains(lines[2], "repair") {
		t.Fatalf("order wrong:\n%s", d)
	}
	if d != r.Dump() {
		t.Fatal("Dump not deterministic")
	}
}

func TestDropReasonInDump(t *testing.T) {
	r := New(4)
	r.Record(Event{At: 1, Kind: Drop, LC: -1, Peer: -1, Reason: "fabric transfer failed"})
	if !strings.Contains(r.Dump(), "reason=fabric transfer failed") {
		t.Fatalf("dump:\n%s", r.Dump())
	}
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

// Filter returns retained events matching the predicate, oldest-first.
func (r *Recorder) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range r.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}
