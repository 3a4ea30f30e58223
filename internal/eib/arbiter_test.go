package eib

import (
	"testing"
	"testing/quick"
)

func TestArbiterSingleLP(t *testing.T) {
	a := NewArbiter([]int{0, 1, 2})
	id := a.Establish(1)
	if id != 1 {
		t.Fatalf("first LP id = %d", id)
	}
	if a.Current() != 1 {
		t.Fatalf("Current = %d", a.Current())
	}
	// A single LP keeps the lines to itself across rotations.
	for i := 0; i < 5; i++ {
		if next := a.CompleteTurn(); next != 1 {
			t.Fatalf("turn %d: next = %d", i, next)
		}
	}
	if err := a.Consistent(); err != nil {
		t.Fatal(err)
	}
}

func TestArbiterFigure4Rotation(t *testing.T) {
	// Figure 4: LC_init 1 establishes first (ID 1), then LC_init 2
	// (ID 2); the two LPs alternate, most recently added first in each
	// rotation.
	a := NewArbiter([]int{1, 2, 3})
	a.Establish(1)
	a.Establish(2)
	got := a.Schedule(6)
	// Rotation counter starts at 1 when LP1 was alone; establishing LP2
	// leaves the current turn with LP1, then reloads to β=2: newest
	// first.
	want := []int{1, 2, 1, 2, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", got, want)
		}
	}
	if err := a.Consistent(); err != nil {
		t.Fatal(err)
	}
}

func TestArbiterNewestFirstAfterReload(t *testing.T) {
	a := NewArbiter([]int{0, 1, 2, 3})
	a.Establish(0) // ID 1
	a.Establish(1) // ID 2
	a.Establish(2) // ID 3
	// Current rotation began with only LP(0); after its turn the reload
	// takes rotation to β=3, so LC 2 (newest, ID 3) goes first, then 1,
	// then 0.
	got := a.Schedule(7)
	want := []int{0, 2, 1, 0, 2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", got, want)
		}
	}
}

func TestArbiterRelease(t *testing.T) {
	a := NewArbiter([]int{0, 1, 2})
	a.Establish(0) // ID 1
	a.Establish(1) // ID 2
	a.Establish(2) // ID 3
	a.Release(1)   // releases ID 2
	// IDs above 2 shift down: LC2 now holds ID 2; LC0 keeps ID 1.
	if a.Counters(2).ID() != 2 || a.Counters(0).ID() != 1 || a.Counters(1).ID() != 0 {
		t.Fatalf("IDs after release: %d %d %d",
			a.Counters(0).ID(), a.Counters(1).ID(), a.Counters(2).ID())
	}
	if err := a.Consistent(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, lc := range a.Schedule(4) {
		seen[lc] = true
	}
	if seen[1] {
		t.Fatal("released LP still scheduled")
	}
	if !seen[0] || !seen[2] {
		t.Fatalf("remaining LPs not all scheduled: %v", seen)
	}
}

func TestArbiterReleaseAll(t *testing.T) {
	a := NewArbiter([]int{0, 1})
	a.Establish(0)
	a.Establish(1)
	a.Release(0)
	a.Release(1)
	if a.Current() != -1 {
		t.Fatalf("Current = %d after releasing all", a.Current())
	}
	if a.CompleteTurn() != -1 {
		t.Fatal("CompleteTurn on idle lines")
	}
	if a.Counters(0).Beta() != 0 {
		t.Fatalf("β = %d", a.Counters(0).Beta())
	}
}

func TestArbiterDoubleEstablishPanics(t *testing.T) {
	a := NewArbiter([]int{0})
	a.Establish(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Establish(0)
}

func TestArbiterReleaseWithoutLPPanics(t *testing.T) {
	a := NewArbiter([]int{0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Release(0)
}

func TestArbiterUnknownLCPanics(t *testing.T) {
	a := NewArbiter([]int{0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Establish(5)
}

// Property: under any sequence of establish/turn/release operations, all
// controllers stay consistent, and each rotation gives every active LP
// exactly one turn (fairness).
func TestArbiterFairnessProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		lcs := []int{0, 1, 2, 3, 4}
		a := NewArbiter(lcs)
		active := map[int]bool{}
		for _, op := range ops {
			lc := int(op>>2) % len(lcs)
			switch op % 3 {
			case 0:
				if !active[lc] {
					a.Establish(lc)
					active[lc] = true
				}
			case 1:
				if active[lc] {
					a.Release(lc)
					active[lc] = false
				}
			case 2:
				a.CompleteTurn()
			}
			if a.Consistent() != nil {
				return false
			}
		}
		// Fairness check over full rotations from a reload boundary.
		n := 0
		for _, on := range active {
			if on {
				n++
			}
		}
		if n == 0 {
			return a.Current() == -1
		}
		// Drive to a rotation boundary, then observe one full rotation.
		for i := 0; i < n; i++ {
			if a.Counters(anyActive(active)).Rotation() == n {
				break
			}
			a.CompleteTurn()
		}
		counts := map[int]int{}
		cur := a.Current()
		for i := 0; i < n; i++ {
			counts[cur]++
			cur = a.CompleteTurn()
		}
		for lc, on := range active {
			if on && counts[lc] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func anyActive(m map[int]bool) int {
	for lc, on := range m {
		if on {
			return lc
		}
	}
	return 0
}

func BenchmarkArbiterRotation(b *testing.B) {
	lcs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	a := NewArbiter(lcs)
	for _, lc := range lcs {
		a.Establish(lc)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.CompleteTurn()
	}
}

// Beta returns this controller's view of the number of active LPs.
func (c *CounterSet) Beta() int { return c.ctrBeta }

// Rotation returns this controller's view of the rotation counter.
func (c *CounterSet) Rotation() int { return c.ctrR }
