package xrand

import (
	"math"
	"testing"
)

func TestReproducibility(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	a.Uint64()
	a.Reseed(99)
	b := New(99)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Reseed did not reset to New-equivalent state")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(6)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates too far from %g", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMeanAndPositivity(t *testing.T) {
	r := New(8)
	for _, rate := range []float64{0.5, 1, 2e-5, 10} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := r.Exp(rate)
			if v <= 0 {
				t.Fatalf("Exp(%g) returned non-positive %g", rate, v)
			}
			sum += v
		}
		mean := sum / n
		want := 1 / rate
		if math.Abs(mean-want)/want > 0.03 {
			t.Fatalf("Exp(%g) mean = %g, want ~%g", rate, mean, want)
		}
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestJumpProducesDisjointStream(t *testing.T) {
	a := New(21)
	b := New(21)
	b.Jump()
	seen := make(map[uint64]bool, 4096)
	for i := 0; i < 4096; i++ {
		seen[a.Uint64()] = true
	}
	overlap := 0
	for i := 0; i < 4096; i++ {
		if seen[b.Uint64()] {
			overlap++
		}
	}
	if overlap > 0 {
		t.Fatalf("jumped stream overlapped original in %d of 4096 outputs", overlap)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(33)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first output")
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d, %d) = (%d, %d), want (%d, %d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(2e-5)
	}
}
