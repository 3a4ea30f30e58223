package fabric

import (
	"fmt"

	"repro/internal/packet"
)

// Banyan models the other fabric family the paper names ("crossbar or a
// multistage interconnect"): a self-routing butterfly of 2×2 switching
// elements, log2(n) stages of n/2 elements. Cells route themselves by the
// destination's bits, one bit per stage; two cells wanting the same
// internal output link in the same slot collide, and one of them is
// blocked — the internal blocking that distinguishes multistage fabrics
// from crossbars and motivates the redundancy the paper assumes.
type Banyan struct {
	n      int // ports, power of two
	stages int
	// failed[s][e] marks element e of stage s failed: cells needing it
	// are blocked.
	failed [][]bool

	Offered   uint64
	Delivered uint64
	Blocked   uint64
}

// NewBanyan builds an n-port network; n must be a power of two ≥ 2.
func NewBanyan(n int) (*Banyan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fabric: banyan needs a power-of-two port count, got %d", n)
	}
	stages := 0
	for 1<<stages < n {
		stages++
	}
	f := make([][]bool, stages)
	for s := range f {
		f[s] = make([]bool, n/2)
	}
	return &Banyan{n: n, stages: stages, failed: f}, nil
}

// FailElement marks one 2×2 switching element failed.
func (b *Banyan) FailElement(stage, elem int) {
	b.checkElem(stage, elem)
	b.failed[stage][elem] = true
}

func (b *Banyan) checkElem(stage, elem int) {
	if stage < 0 || stage >= b.stages || elem < 0 || elem >= b.n/2 {
		panic(fmt.Sprintf("fabric: element (%d, %d) outside %d-stage banyan", stage, elem, b.stages))
	}
}

// Routing follows the omega (shuffle-exchange) wiring: before each stage
// the rows are perfectly shuffled (rotate-left of the row index), so the
// element a cell occupies at stage s is row mod n/2, and the cell exits
// on the output selected by destination bit (stages−1−s). The classic
// admissibility results follow: identity and circular shifts pass
// conflict-free; bit-reversal-like permutations block.

// SendBatch attempts to deliver one cell per distinct source in a single
// slot. It returns the delivered cells; the rest were blocked, either by
// internal link contention or by failed elements. Cells must have
// distinct SrcLC values (one injection port each).
func (b *Banyan) SendBatch(cells []packet.Cell) []packet.Cell {
	type claim struct{ stage, elem, out int }
	used := make(map[claim]bool)
	seenSrc := make(map[int]bool)
	var ok []packet.Cell
	for _, c := range cells {
		if c.SrcLC < 0 || c.SrcLC >= b.n || c.DstLC < 0 || c.DstLC >= b.n {
			panic(fmt.Sprintf("fabric: cell %d->%d outside banyan", c.SrcLC, c.DstLC))
		}
		if seenSrc[c.SrcLC] {
			panic(fmt.Sprintf("fabric: two cells injected at port %d in one slot", c.SrcLC))
		}
		seenSrc[c.SrcLC] = true
		b.Offered++
		row := c.SrcLC
		blocked := false
		var claims []claim
		for s := 0; s < b.stages; s++ {
			bit := (c.DstLC >> (b.stages - 1 - s)) & 1
			elem := row & (b.n/2 - 1) // pair index after the shuffle
			if b.failed[s][elem] {
				blocked = true
				break
			}
			cl := claim{s, elem, bit}
			if used[cl] {
				blocked = true
				break
			}
			claims = append(claims, cl)
			row = ((row << 1) | bit) & (b.n - 1)
		}
		if blocked {
			b.Blocked++
			continue
		}
		for _, cl := range claims {
			used[cl] = true
		}
		b.Delivered++
		ok = append(ok, c)
	}
	return ok
}
