package fabric

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/xrand"
)

func cell(in, out int) packet.Cell {
	return packet.Cell{SrcLC: in, DstLC: out, Total: 1, Last: true}
}

func TestVOQSingleFlowFullRate(t *testing.T) {
	s := NewVOQSwitch(4)
	for i := 0; i < 100; i++ {
		if err := s.Enqueue(cell(0, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for slot := 0; slot < 100; slot++ {
		got := s.Step()
		if len(got) != 1 || got[0].DstLC != 2 {
			t.Fatalf("slot %d delivered %v", slot, got)
		}
	}
	if s.Backlog() != 0 {
		t.Fatalf("backlog = %d", s.Backlog())
	}
}

func TestVOQPermutationTrafficFullThroughput(t *testing.T) {
	// A permutation pattern (input i -> output (i+1)%n) must sustain one
	// cell per input per slot.
	const n = 6
	s := NewVOQSwitch(n)
	const slots = 500
	for slot := 0; slot < slots; slot++ {
		for in := 0; in < n; in++ {
			if err := s.Enqueue(cell(in, (in+1)%n)); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(s.Step()); got != n {
			t.Fatalf("slot %d delivered %d, want %d", slot, got, n)
		}
	}
}

func TestVOQUniformHighLoadNearFullThroughput(t *testing.T) {
	// Bernoulli arrivals at 95% load, uniform destinations: iSLIP-style
	// matching must deliver essentially all of it (backlog stays small
	// relative to the cells moved).
	const n = 8
	const slots = 60000
	const load = 0.95
	s := NewVOQSwitch(n)
	rng := xrand.New(9)
	for slot := 0; slot < slots; slot++ {
		for in := 0; in < n; in++ {
			if rng.Float64() < load {
				out := rng.Intn(n)
				if err := s.Enqueue(cell(in, out)); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Step()
	}
	throughput := float64(s.Delivered) / float64(slots) / n
	if throughput < 0.93 {
		t.Fatalf("VOQ throughput %.3f at load %.2f — matching is broken", throughput, load)
	}
	if s.Backlog() > int(0.05*float64(s.Enqueued)) {
		t.Fatalf("backlog %d too large vs enqueued %d", s.Backlog(), s.Enqueued)
	}
}

func TestFIFOHOLBlockingSaturates(t *testing.T) {
	// The same uniform traffic through FIFO inputs saturates near the
	// classic 58.6% bound (2−√2).
	const n = 8
	const slots = 60000
	s := NewFIFOSwitch(n)
	rng := xrand.New(10)
	for slot := 0; slot < slots; slot++ {
		for in := 0; in < n; in++ {
			// Saturated inputs: always backlogged.
			if len(s.fifo[in]) < 50 {
				s.Enqueue(cell(in, rng.Intn(n)))
			}
		}
		s.Step()
	}
	throughput := float64(s.Delivered) / float64(slots) / n
	if throughput > 0.70 || throughput < 0.50 {
		t.Fatalf("FIFO saturation throughput %.3f, expected near the 0.586 HOL bound", throughput)
	}
}

func TestVOQBeatsFIFOUnderSaturation(t *testing.T) {
	const n = 8
	const slots = 30000
	voq := NewVOQSwitch(n)
	fifo := NewFIFOSwitch(n)
	rngA := xrand.New(11)
	rngB := xrand.New(11) // identical arrival sequence
	for slot := 0; slot < slots; slot++ {
		for in := 0; in < n; in++ {
			if voq.Backlog() < 50*n {
				voq.Enqueue(cell(in, rngA.Intn(n)))
			}
			if fifo.Backlog() < 50*n {
				fifo.Enqueue(cell(in, rngB.Intn(n)))
			}
		}
		voq.Step()
		fifo.Step()
	}
	if voq.Delivered <= fifo.Delivered {
		t.Fatalf("VOQ %d not above FIFO %d", voq.Delivered, fifo.Delivered)
	}
}

func TestVOQNoStarvation(t *testing.T) {
	// A lone low-rate flow competing against saturated flows to the same
	// output must still be served (round-robin pointers guarantee it).
	const n = 4
	s := NewVOQSwitch(n)
	// Saturate inputs 1..3 toward output 0.
	for i := 0; i < 300; i++ {
		for in := 1; in < n; in++ {
			s.Enqueue(cell(in, 0))
		}
	}
	// One cell from input 0 to output 0.
	s.Enqueue(cell(0, 0))
	servedAt := -1
	for slot := 0; slot < 4*n; slot++ {
		for _, c := range s.Step() {
			if c.SrcLC == 0 {
				servedAt = slot
			}
		}
		if servedAt >= 0 {
			break
		}
	}
	if servedAt < 0 {
		t.Fatal("flow starved beyond a full round-robin cycle")
	}
}

func TestSwitchValidation(t *testing.T) {
	s := NewVOQSwitch(2)
	if err := s.Enqueue(cell(0, 5)); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	f := NewFIFOSwitch(2)
	if err := f.Enqueue(cell(-1, 0)); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	for _, fn := range []func(){func() { NewVOQSwitch(0) }, func() { NewFIFOSwitch(0) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestVOQConservation(t *testing.T) {
	const n = 5
	s := NewVOQSwitch(n)
	rng := xrand.New(12)
	enq := 0
	for slot := 0; slot < 5000; slot++ {
		if rng.Float64() < 0.7 {
			s.Enqueue(cell(rng.Intn(n), rng.Intn(n)))
			enq++
		}
		s.Step()
	}
	// Drain.
	for s.Backlog() > 0 {
		s.Step()
	}
	if int(s.Delivered) != enq {
		t.Fatalf("delivered %d != enqueued %d", s.Delivered, enq)
	}
}

func BenchmarkVOQStep(b *testing.B) {
	const n = 16
	s := NewVOQSwitch(n)
	rng := xrand.New(1)
	for i := 0; i < n*n*4; i++ {
		s.Enqueue(cell(rng.Intn(n), rng.Intn(n)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		// Keep it loaded.
		s.Enqueue(cell(rng.Intn(n), rng.Intn(n)))
	}
}

// Backlog returns the total queued cells.
func (s *VOQSwitch) Backlog() int {
	total := 0
	for i := range s.voq {
		for j := range s.voq[i] {
			total += len(s.voq[i][j])
		}
	}
	return total
}

// Backlog returns the total queued cells.
func (s *FIFOSwitch) Backlog() int {
	total := 0
	for i := range s.fifo {
		total += len(s.fifo[i])
	}
	return total
}
