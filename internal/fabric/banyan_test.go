package fabric

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/xrand"
)

func mustBanyan(t *testing.T, n int) *Banyan {
	t.Helper()
	b, err := NewBanyan(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBanyanValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 12} {
		if _, err := NewBanyan(n); err == nil {
			t.Fatalf("n=%d accepted", n)
		}
	}
	b := mustBanyan(t, 8)
	if b.Ports() != 8 || b.Stages() != 3 {
		t.Fatalf("ports=%d stages=%d", b.Ports(), b.Stages())
	}
}

func TestBanyanSelfRoutingSingleCell(t *testing.T) {
	// Any lone cell must reach any destination: no contention, no
	// failures → delivered.
	b := mustBanyan(t, 16)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			got := b.SendBatch([]packet.Cell{{SrcLC: src, DstLC: dst, Total: 1, Last: true}})
			if len(got) != 1 {
				t.Fatalf("cell %d->%d blocked in empty network", src, dst)
			}
		}
	}
	if b.Blocked != 0 {
		t.Fatalf("blocked = %d", b.Blocked)
	}
}

func TestBanyanAdmissiblePermutationsPass(t *testing.T) {
	// Identity and circular shifts are the textbook conflict-free
	// permutations of the omega network.
	for _, shift := range []int{0, 1, 3, 7} {
		b := mustBanyan(t, 8)
		var cells []packet.Cell
		for i := 0; i < 8; i++ {
			cells = append(cells, packet.Cell{SrcLC: i, DstLC: (i + shift) % 8, Total: 1, Last: true})
		}
		if got := b.SendBatch(cells); len(got) != 8 {
			t.Fatalf("shift-%d permutation delivered %d/8", shift, len(got))
		}
	}
}

func TestBanyanInternalBlockingExists(t *testing.T) {
	// Banyans are blocking networks: some permutation must block. Count
	// over random permutations; a non-trivial fraction must block, unlike
	// a crossbar.
	b := mustBanyan(t, 8)
	rng := xrand.New(7)
	blockedPerms := 0
	const trials = 200
	for tr := 0; tr < trials; tr++ {
		perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
		for i := len(perm) - 1; i > 0; i-- { // Fisher–Yates
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		var cells []packet.Cell
		for i, d := range perm {
			cells = append(cells, packet.Cell{SrcLC: i, DstLC: d, Total: 1, Last: true})
		}
		if len(b.SendBatch(cells)) < 8 {
			blockedPerms++
		}
	}
	if blockedPerms == 0 {
		t.Fatal("no permutation ever blocked — that is a crossbar, not a banyan")
	}
	if blockedPerms == trials {
		t.Fatal("every permutation blocked — routing is broken")
	}
}

func TestBanyanUniformThroughputBand(t *testing.T) {
	// Classic result: a saturated unbuffered banyan delivers well below
	// line rate under uniform traffic (≈0.45–0.6 for n=8..16 by the
	// Patel analysis). Check we land in a sane band.
	b := mustBanyan(t, 16)
	rng := xrand.New(8)
	const slots = 4000
	for s := 0; s < slots; s++ {
		var cells []packet.Cell
		for in := 0; in < 16; in++ {
			cells = append(cells, packet.Cell{SrcLC: in, DstLC: rng.Intn(16), Total: 1, Last: true})
		}
		b.SendBatch(cells)
	}
	frac := float64(b.Delivered) / float64(b.Offered)
	if frac < 0.35 || frac > 0.75 {
		t.Fatalf("uniform throughput %.3f outside the plausible banyan band", frac)
	}
}

func TestBanyanElementFailureBlocksOnlyItsPaths(t *testing.T) {
	b := mustBanyan(t, 8)
	// Kill the first-stage element 0; under omega wiring it serves the
	// rows with row mod 4 == 0, i.e. inputs 0 and 4.
	b.FailElement(0, 0)
	if got := b.SendBatch([]packet.Cell{{SrcLC: 0, DstLC: 5, Total: 1, Last: true}}); len(got) != 0 {
		t.Fatal("cell crossed a failed element")
	}
	if got := b.SendBatch([]packet.Cell{{SrcLC: 4, DstLC: 5, Total: 1, Last: true}}); len(got) != 0 {
		t.Fatal("cell crossed a failed element (input 4)")
	}
	// Inputs outside that element still work.
	if got := b.SendBatch([]packet.Cell{{SrcLC: 1, DstLC: 5, Total: 1, Last: true}}); len(got) != 1 {
		t.Fatal("unrelated path blocked")
	}
	b.RepairElement(0, 0)
	if got := b.SendBatch([]packet.Cell{{SrcLC: 0, DstLC: 5, Total: 1, Last: true}}); len(got) != 1 {
		t.Fatal("repair ineffective")
	}
}

func TestBanyanPanics(t *testing.T) {
	b := mustBanyan(t, 4)
	for name, f := range map[string]func(){
		"bad cell":   func() { b.SendBatch([]packet.Cell{{SrcLC: 9, DstLC: 0}}) },
		"dup source": func() { b.SendBatch([]packet.Cell{{SrcLC: 0, DstLC: 1}, {SrcLC: 0, DstLC: 2}}) },
		"bad elem":   func() { b.FailElement(5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Ports returns n.
func (b *Banyan) Ports() int { return b.n }

// Stages returns log2(n).
func (b *Banyan) Stages() int { return b.stages }

// RepairElement restores one element.
func (b *Banyan) RepairElement(stage, elem int) {
	b.checkElem(stage, elem)
	b.failed[stage][elem] = false
}
