package eib

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/linecard"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/xrand"
)

func newTestBus(t *testing.T) (*sim.Kernel, *Bus) {
	t.Helper()
	k := sim.NewKernel()
	b, err := NewBus(k, xrand.New(7), DefaultBusConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k, b
}

func TestBusConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewBus(k, xrand.New(1), BusConfig{DataCapacity: 0, CtrlSlot: 1}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewBus(k, xrand.New(1), BusConfig{DataCapacity: 1, CtrlSlot: 0}); err == nil {
		t.Fatal("zero slot accepted")
	}
}

func TestControlPacketValidate(t *testing.T) {
	bad := []ControlPacket{
		{Type: REQD, Init: 0, DataRate: 0},
		{Type: REPD, Init: 0, Rec: Broadcast},
		{Type: RELD, Init: 0},
		{Type: ControlType(99), Init: 0},
		{Type: REQL, Init: -2},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("case %d: invalid packet accepted: %+v", i, p)
		}
	}
	good := ControlPacket{Type: REQD, Init: 1, Rec: Broadcast, DataRate: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestControlTypeStrings(t *testing.T) {
	names := map[ControlType]string{REQD: "REQ_D", REPD: "REP_D", REQL: "REQ_L", REPL: "REP_L", RELD: "REL_D"}
	for ct, s := range names {
		if ct.String() != s {
			t.Fatalf("%v != %s", ct, s)
		}
	}
	if Forward.String() != "forward" || Reverse.String() != "reverse" {
		t.Fatal("direction names")
	}
}

func TestBroadcastReachesAllAttached(t *testing.T) {
	k, b := newTestBus(t)
	var got []int
	for lc := 0; lc < 3; lc++ {
		lc := lc
		b.Attach(lc, func(p ControlPacket) { got = append(got, lc) })
	}
	err := b.Broadcast(ControlPacket{Type: REQL, Init: 0, Rec: Broadcast}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("delivery = %v", got)
	}
}

func TestBroadcastAddressingTierFilters(t *testing.T) {
	k, b := newTestBus(t)
	var got []int
	for lc := 0; lc < 4; lc++ {
		lc := lc
		b.Attach(lc, func(p ControlPacket) { got = append(got, lc) })
	}
	// Addressed to LC 2 from LC 0: only initiator and receiver see it.
	if err := b.Broadcast(ControlPacket{Type: REPD, Init: 0, Rec: 2}, nil); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("delivery = %v", got)
	}
}

func TestBroadcastSerializesAndCountsCollisions(t *testing.T) {
	k, b := newTestBus(t)
	b.Attach(0, func(ControlPacket) {})
	var times []sim.Time
	send := func() {
		if err := b.Broadcast(ControlPacket{Type: REQL, Init: 0, Rec: Broadcast},
			func() { times = append(times, k.Now()) }); err != nil {
			t.Fatal(err)
		}
	}
	send()
	send() // contends: carrier busy
	k.Run(0)
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	if times[1] <= times[0] {
		t.Fatal("second broadcast not serialized after first")
	}
	if b.Collisions != 1 {
		t.Fatalf("Collisions = %d, want 1", b.Collisions)
	}
	if b.CtrlPackets != 2 {
		t.Fatalf("CtrlPackets = %d", b.CtrlPackets)
	}
}

// Property: the control lines are a serial medium — deliveries never
// overlap; consecutive delivery instants are at least one slot apart no
// matter how many senders contend.
func TestControlLineSerializationProperty(t *testing.T) {
	k, b := newTestBus(t)
	for lc := 0; lc < 4; lc++ {
		b.Attach(lc, func(ControlPacket) {})
	}
	var times []sim.Time
	const sends = 200
	for i := 0; i < sends; i++ {
		init := i % 4
		if err := b.Broadcast(ControlPacket{Type: REQL, Init: init, Rec: Broadcast},
			func() { times = append(times, k.Now()) }); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			k.RunUntil(k.Now() + sim.Time(b.Config().CtrlSlot)/2)
		}
	}
	k.Run(0)
	if len(times) != sends {
		t.Fatalf("deliveries = %d", len(times))
	}
	slot := sim.Time(b.Config().CtrlSlot)
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] < slot-1e-18 {
			t.Fatalf("deliveries %d and %d only %v apart (slot %v)", i-1, i, times[i]-times[i-1], slot)
		}
	}
}

func TestSnifferSeesAddressedPackets(t *testing.T) {
	k, b := newTestBus(t)
	b.Attach(0, func(ControlPacket) {})
	b.Attach(1, func(ControlPacket) {})
	var sniffed []ControlType
	b.Sniff(func(p ControlPacket) { sniffed = append(sniffed, p.Type) })
	if err := b.Broadcast(ControlPacket{Type: REPD, Init: 0, Rec: 1}, nil); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	if len(sniffed) != 1 || sniffed[0] != REPD {
		t.Fatalf("sniffed = %v", sniffed)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil sniffer accepted")
		}
	}()
	b.Sniff(nil)
}

func TestBroadcastFromUnattachedFails(t *testing.T) {
	_, b := newTestBus(t)
	err := b.Broadcast(ControlPacket{Type: REQL, Init: 9, Rec: Broadcast}, nil)
	if err == nil {
		t.Fatal("unattached initiator accepted")
	}
}

func TestBusFailureDropsLPsAndBlocksTraffic(t *testing.T) {
	k, b := newTestBus(t)
	b.Attach(0, func(ControlPacket) {})
	lp, err := b.OpenLP(0, 1, 100, Forward)
	if err != nil {
		t.Fatal(err)
	}
	b.Fail()
	if !b.Failed() {
		t.Fatal("Failed() false")
	}
	if b.ActiveLPs() != 0 {
		t.Fatal("bus failure did not drop LPs")
	}
	if _, err := b.Promised(lp.ID); !errors.Is(err, ErrBusDown) {
		t.Fatalf("Promised on dead bus: %v", err)
	}
	if err := b.Broadcast(ControlPacket{Type: REQL, Init: 0, Rec: Broadcast}, nil); !errors.Is(err, ErrBusDown) {
		t.Fatalf("Broadcast on dead bus: %v", err)
	}
	if _, err := b.OpenLP(0, 1, 1, Forward); !errors.Is(err, ErrBusDown) {
		t.Fatalf("OpenLP on dead bus: %v", err)
	}
	b.Repair()
	if err := b.Broadcast(ControlPacket{Type: REQL, Init: 0, Rec: Broadcast}, nil); err != nil {
		t.Fatalf("Broadcast after repair: %v", err)
	}
	k.Run(0)
}

func TestPromiseFormulaUnderload(t *testing.T) {
	_, b := newTestBus(t)
	cap := b.Config().DataCapacity
	lp1, _ := b.OpenLP(0, 1, cap/4, Forward)
	lp2, _ := b.OpenLP(2, 3, cap/2, Reverse)
	for _, lp := range []*LP{lp1, lp2} {
		got, err := b.Promised(lp.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got != lp.Asked {
			t.Fatalf("underload promise = %g, want ask %g", got, lp.Asked)
		}
	}
}

func TestPromiseFormulaOverload(t *testing.T) {
	// Paper: if B_LCT > B_BUS, B_prom = (B_LC / B_LCT) × B_BUS.
	_, b := newTestBus(t)
	cap := b.Config().DataCapacity
	lp1, _ := b.OpenLP(0, 1, cap, Forward)
	lp2, _ := b.OpenLP(2, 3, cap/2, Forward)
	lp3, _ := b.OpenLP(4, 5, cap/2, Forward)
	total := 2 * cap
	for _, lp := range []*LP{lp1, lp2, lp3} {
		got, err := b.Promised(lp.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := lp.Asked / total * cap
		if math.Abs(got-want) > 1e-6*want {
			t.Fatalf("overload promise = %g, want %g", got, want)
		}
	}
	// Sum of promises equals the bus capacity.
	sum := 0.0
	for _, v := range b.PromisedAll() {
		sum += v
	}
	if math.Abs(sum-cap) > 1e-6*cap {
		t.Fatalf("Σ promises = %g, want %g", sum, cap)
	}
}

func TestCloseLPRestoresPromises(t *testing.T) {
	_, b := newTestBus(t)
	cap := b.Config().DataCapacity
	lp1, _ := b.OpenLP(0, 1, cap, Forward)
	lp2, _ := b.OpenLP(2, 3, cap, Forward)
	if got, _ := b.Promised(lp1.ID); got != cap/2 {
		t.Fatalf("promise with contention = %g", got)
	}
	b.CloseLP(lp2.ID)
	if got, _ := b.Promised(lp1.ID); got != cap {
		t.Fatalf("promise after release = %g", got)
	}
	b.CloseLP(lp2.ID) // idempotent
	if b.LPsClosed != 1 {
		t.Fatalf("LPsClosed = %d", b.LPsClosed)
	}
	if _, err := b.Promised(lp2.ID); err == nil {
		t.Fatal("Promised on closed LP succeeded")
	}
}

func TestOpenLPValidatesRate(t *testing.T) {
	_, b := newTestBus(t)
	if _, err := b.OpenLP(0, 1, 0, Forward); err == nil {
		t.Fatal("zero-rate LP accepted")
	}
}

// --- Controller / handshake tests ---

func TestRequestDataHandshake(t *testing.T) {
	k, b := newTestBus(t)
	init := NewController(b, 0)
	cand1 := NewController(b, 1)
	cand2 := NewController(b, 2)
	// Only candidate 2 is willing (e.g. candidate 1 fails the protocol
	// check of the processing tier).
	cand1.AcceptData = func(p ControlPacket) bool { return false }
	cand2.AcceptData = func(p ControlPacket) bool {
		return p.Proto == packet.ProtoEthernet && p.FaultyComponent == linecard.PDLU
	}
	var acceptedBy = -1
	var failErr error
	init.RequestData(ControlPacket{
		Rec:             Broadcast,
		Direction:       Forward,
		DataRate:        100,
		Proto:           packet.ProtoEthernet,
		FaultyComponent: linecard.PDLU,
	}, func(rec int) { acceptedBy = rec }, func(err error) { failErr = err })
	k.Run(0)
	if failErr != nil {
		t.Fatal(failErr)
	}
	if acceptedBy != 2 {
		t.Fatalf("accepted by %d, want 2", acceptedBy)
	}
}

func TestRequestDataFirstReplyWins(t *testing.T) {
	k, b := newTestBus(t)
	init := NewController(b, 0)
	for lc := 1; lc <= 3; lc++ {
		c := NewController(b, lc)
		c.AcceptData = func(ControlPacket) bool { return true }
	}
	winners := map[int]int{}
	for trial := 0; trial < 10; trial++ {
		got := -1
		init.RequestData(ControlPacket{Rec: Broadcast, DataRate: 1},
			func(rec int) { got = rec }, func(err error) { t.Fatal(err) })
		k.Run(0)
		if got == -1 {
			t.Fatal("no winner")
		}
		winners[got]++
	}
	// Exactly one winner per trial; all 10 trials completed.
	total := 0
	for _, n := range winners {
		total += n
	}
	if total != 10 {
		t.Fatalf("trials completed = %d", total)
	}
}

func TestRequestDataNoCoverage(t *testing.T) {
	k, b := newTestBus(t)
	init := NewController(b, 0)
	c := NewController(b, 1)
	c.AcceptData = func(ControlPacket) bool { return false }
	var failErr error
	init.RequestData(ControlPacket{Rec: Broadcast, DataRate: 1},
		func(rec int) { t.Fatal("unexpected accept") },
		func(err error) { failErr = err })
	k.Run(0)
	if !errors.Is(failErr, ErrNoCoverage) {
		t.Fatalf("err = %v, want ErrNoCoverage", failErr)
	}
}

func TestRequestLookup(t *testing.T) {
	k, b := newTestBus(t)
	init := NewController(b, 0)
	helper := NewController(b, 1)
	helper.ServeLookup = func(addr uint32) (int, bool) {
		if addr == 0x0a000001 {
			return 5, true
		}
		return 0, false
	}
	got := -1
	init.RequestLookup(0x0a000001, func(egress int) { got = egress }, func(err error) { t.Fatal(err) })
	k.Run(0)
	if got != 5 {
		t.Fatalf("lookup egress = %d", got)
	}
	if helper.RepliesSent != 1 {
		t.Fatalf("RepliesSent = %d", helper.RepliesSent)
	}

	// Unresolvable address: nobody replies.
	var failErr error
	init.RequestLookup(0xdeadbeef, func(int) { t.Fatal("unexpected result") }, func(err error) { failErr = err })
	k.Run(0)
	if !errors.Is(failErr, ErrNoCoverage) {
		t.Fatalf("err = %v", failErr)
	}
}

func TestRequestDataReversePath(t *testing.T) {
	// Reverse path (§4(b)): LC_init sends the REQ_D to the faulty
	// destination LC specifically; only that LC replies. Addressing-tier
	// filtering must keep other controllers silent even if willing.
	k, b := newTestBus(t)
	init := NewController(b, 0)
	outLC := NewController(b, 2)
	eager := NewController(b, 1)
	eager.AcceptData = func(ControlPacket) bool { return true }
	outLC.AcceptData = func(p ControlPacket) bool { return p.Direction == Reverse }
	got := -1
	init.RequestData(ControlPacket{Rec: 2, Direction: Reverse, DataRate: 5},
		func(rec int) { got = rec }, func(err error) { t.Fatal(err) })
	k.Run(0)
	if got != 2 {
		t.Fatalf("reverse path accepted by %d, want the faulty LC 2", got)
	}
	if eager.RepliesSent != 0 {
		t.Fatal("non-addressed controller replied on the reverse path")
	}
}

func TestReleaseNotifiesPeers(t *testing.T) {
	k, b := newTestBus(t)
	init := NewController(b, 0)
	peer := NewController(b, 1)
	var released []int
	peer.OnRelease = func(p ControlPacket) { released = append(released, p.LPID) }
	lp, err := b.OpenLP(0, 1, 10, Forward)
	if err != nil {
		t.Fatal(err)
	}
	if err := init.Release(lp); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	if len(released) != 1 || released[0] != lp.ID {
		t.Fatalf("released = %v", released)
	}
	if b.ActiveLPs() != 0 {
		t.Fatal("LP still open after release")
	}
}

func TestDetachedControllerNeitherSeesNorAnswers(t *testing.T) {
	k, b := newTestBus(t)
	init := NewController(b, 0)
	c := NewController(b, 1)
	c.AcceptData = func(ControlPacket) bool { return true }
	c.Detach() // bus-controller failure
	var failErr error
	init.RequestData(ControlPacket{Rec: Broadcast, DataRate: 1},
		func(rec int) { t.Fatal("detached controller answered") },
		func(err error) { failErr = err })
	k.Run(0)
	if !errors.Is(failErr, ErrNoCoverage) {
		t.Fatalf("err = %v", failErr)
	}
	c.Reattach()
	got := -1
	init.RequestData(ControlPacket{Rec: Broadcast, DataRate: 1},
		func(rec int) { got = rec }, func(err error) { t.Fatal(err) })
	k.Run(0)
	if got != 1 {
		t.Fatal("reattached controller did not answer")
	}
}

func TestOverlappingExchangeRejected(t *testing.T) {
	k, b := newTestBus(t)
	init := NewController(b, 0)
	c := NewController(b, 1)
	c.AcceptData = func(ControlPacket) bool { return true }
	var second error
	init.RequestData(ControlPacket{Rec: Broadcast, DataRate: 1}, func(int) {}, func(err error) { t.Fatal(err) })
	init.RequestData(ControlPacket{Rec: Broadcast, DataRate: 1}, func(int) {}, func(err error) { second = err })
	if second == nil {
		t.Fatal("overlapping exchange accepted")
	}
	k.Run(0)
}

// Promised returns B_prom for the LP, per the paper's formula: the full
// ask while ΣB_LC ≤ B_BUS, and the proportional share
// (B_LC / B_LCT) · B_BUS under overload — the scale-back that forces
// requesting LCs to drop packets.
func (b *Bus) Promised(id int) (float64, error) {
	if b.fail {
		return 0, ErrBusDown
	}
	lp, ok := b.lps[id]
	if !ok {
		return 0, fmt.Errorf("eib: unknown LP %d", id)
	}
	total := b.TotalAsked()
	if total <= b.cfg.DataCapacity {
		return lp.Asked, nil
	}
	return lp.Asked / total * b.cfg.DataCapacity, nil
}

// PromisedAll returns the promise for every open LP keyed by LP id.
func (b *Bus) PromisedAll() map[int]float64 {
	out := make(map[int]float64, len(b.lps))
	if b.fail {
		return out
	}
	total := b.TotalAsked()
	scale := 1.0
	if total > b.cfg.DataCapacity {
		scale = b.cfg.DataCapacity / total
	}
	for id, lp := range b.lps {
		out[id] = lp.Asked * scale
	}
	return out
}
