package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The scheduler wall: the heap must produce the same pop sequence as a
// naive oracle, a linear-scan queue ordered by (at, seq), for the same op
// script. It is checked here (randomized scripts, exact-tie storms,
// in-loop insertions) and in FuzzScheduler (adversarial byte scripts).

// popRec is one observed pop, keyed exactly as the queues order.
type popRec struct {
	at  Time
	seq uint64
}

// queue is the op surface a script drives: Heap and the oracle.
type queue interface {
	Push(e *Event)
	Pop() *Event
	Remove(e *Event) bool
	Rebuild()
	Len() int
}

// scanQueue is the oracle: an unordered slice, each Pop a linear scan for
// the minimum (at, seq). Too slow for the kernel, too simple to be wrong.
type scanQueue struct {
	es []*Event
}

func (q *scanQueue) Push(e *Event) { q.es = append(q.es, e) }

func (q *scanQueue) Pop() *Event {
	if len(q.es) == 0 {
		return nil
	}
	min := 0
	for i, e := range q.es {
		if before(e, q.es[min]) {
			min = i
		}
	}
	e := q.es[min]
	q.es = append(q.es[:min], q.es[min+1:]...)
	return e
}

func (q *scanQueue) Remove(e *Event) bool {
	for i, x := range q.es {
		if x == e {
			q.es = append(q.es[:i], q.es[i+1:]...)
			return true
		}
	}
	return false
}

func (q *scanQueue) Rebuild() {}

func (q *scanQueue) Len() int { return len(q.es) }

// scriptOp is one decoded operation of a queue script. Times are deltas
// from the simulated "now" (the at of the last popped event), which keeps
// the script inside the kernel's contract: events are never pushed into
// the past.
type scriptOp struct {
	kind  byte // 0 push, 1 pop, 2 remove, 3 update
	delta Time
	idx   int // live-set index for remove/update
}

// runScript drives q through the ops and returns the full pop order,
// draining the queue at the end. The live set is maintained identically
// for every queue given the same script, so divergence shows up as a
// differing pop sequence rather than a different interpretation. An
// update changes one queued event's key and then calls Rebuild, the path
// Kernel.Commit takes after RescheduleLazy.
func runScript(q queue, ops []scriptOp) []popRec {
	var out []popRec
	var live []*Event
	var seq uint64
	var now Time
	pop := func() {
		e := q.Pop()
		if e == nil {
			return
		}
		now = e.at
		out = append(out, popRec{e.at, e.seq})
		for i, l := range live {
			if l == e {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}
	for _, op := range ops {
		switch op.kind {
		case 0:
			seq++
			e := &Event{at: now + op.delta, seq: seq}
			q.Push(e)
			live = append(live, e)
		case 1:
			pop()
		case 2:
			if len(live) > 0 {
				i := op.idx % len(live)
				e := live[i]
				if !q.Remove(e) {
					panic("live event not removable")
				}
				live = append(live[:i], live[i+1:]...)
			}
		case 3:
			if len(live) > 0 {
				e := live[op.idx%len(live)]
				seq++
				e.at, e.seq = now+op.delta, seq
				q.Rebuild()
			}
		}
	}
	for q.Len() > 0 {
		pop()
	}
	return out
}

// genScript produces a random op script. tieDenom quantizes times so exact
// ties occur frequently; spread sets the time scale.
func genScript(rng *rand.Rand, n int, tieDenom float64, spread float64) []scriptOp {
	ops := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		delta := Time(float64(rng.Intn(int(tieDenom))) / tieDenom * spread)
		switch r := rng.Float64(); {
		case r < 0.55:
			ops = append(ops, scriptOp{kind: 0, delta: delta})
		case r < 0.75:
			ops = append(ops, scriptOp{kind: 1})
		case r < 0.87:
			ops = append(ops, scriptOp{kind: 2, idx: rng.Intn(1 << 16)})
		default:
			ops = append(ops, scriptOp{kind: 3, delta: delta, idx: rng.Intn(1 << 16)})
		}
	}
	return ops
}

// assertMatchesOracle runs the script on the oracle and on a Heap and
// requires pop-for-pop agreement.
func assertMatchesOracle(t *testing.T, ops []scriptOp, name string) {
	t.Helper()
	want := runScript(&scanQueue{}, ops)
	got := runScript(&Heap{}, ops)
	if len(want) != len(got) {
		t.Fatalf("%s: heap popped %d events, oracle popped %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: heap diverges from oracle at pop %d: got (%v, %d), want (%v, %d)",
				name, i, got[i].at, got[i].seq, want[i].at, want[i].seq)
		}
	}
}

// TestSchedulerEquivalenceRandomScripts drives the heap and the oracle
// with the same randomized scripts across several time scales.
func TestSchedulerEquivalenceRandomScripts(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, spread := range []float64{1e-6, 1.0, 1e6} {
			rng := rand.New(rand.NewSource(seed))
			ops := genScript(rng, 600, 64, spread)
			assertMatchesOracle(t, ops, fmt.Sprintf("seed=%d,spread=%g", seed, spread))
		}
	}
}

// TestSchedulerEquivalenceAllTies floods the queue with events at the very
// same timestamp: order must degrade to pure FIFO (seq order).
func TestSchedulerEquivalenceAllTies(t *testing.T) {
	ops := make([]scriptOp, 0, 600)
	for i := 0; i < 400; i++ {
		ops = append(ops, scriptOp{kind: 0, delta: 42})
	}
	for i := 0; i < 200; i++ {
		ops = append(ops, scriptOp{kind: 1})
	}
	for i, r := range runScript(&Heap{}, ops) {
		if r.seq != uint64(i+1) {
			t.Fatalf("tie order is not FIFO: pop %d has seq %d", i, r.seq)
		}
	}
	assertMatchesOracle(t, ops, "all-ties")
}

// TestSchedulerEquivalenceInLoopInsertions interleaves pops with pushes of
// times at and around the current minimum — the self-rescheduling pattern
// every kernel workload produces.
func TestSchedulerEquivalenceInLoopInsertions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ops := make([]scriptOp, 0, 3000)
	for i := 0; i < 1000; i++ {
		// Push two near-future events, pop one: the population grows
		// while the head keeps advancing.
		ops = append(ops,
			scriptOp{kind: 0, delta: Time(rng.Float64())},
			scriptOp{kind: 0, delta: Time(rng.Float64() * 0.01)},
			scriptOp{kind: 1})
	}
	assertMatchesOracle(t, ops, "in-loop")
}
