package sweep

// Pool is the long-lived sibling of Run: where Run fans a fixed grid out
// and returns, a Pool keeps a bounded set of worker slots alive for
// callers that dispatch work over time — the drad job scheduler runs
// every admitted job on one. The bound is the pool's whole point: it
// converts "too much work" into waiting (or a refused TryGo) instead of
// unbounded goroutine growth.

import (
	"runtime"
	"sync"
)

// Pool is a bounded, long-lived worker pool. The zero value is not
// usable; construct with NewPool.
type Pool struct {
	slots chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	onIdle func()
}

// NewPool creates a pool with the given number of worker slots; 0 or
// negative selects runtime.NumCPU().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{slots: make(chan struct{}, workers)}
}

// Workers returns the slot count.
func (p *Pool) Workers() int { return cap(p.slots) }

// OnIdle registers a hook invoked (on the worker's goroutine) each time
// a task finishes and its slot has been released. Schedulers use it to
// dispatch queued work the moment capacity frees: a TryGo that failed
// because the pool was full is guaranteed a hook invocation after any of
// the then-occupied slots empties. Set it once, before submitting work.
func (p *Pool) OnIdle(fn func()) {
	p.mu.Lock()
	p.onIdle = fn
	p.mu.Unlock()
}

// idle fetches the hook under the lock.
func (p *Pool) idle() func() {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.onIdle
}

// InFlight returns the number of currently occupied slots.
func (p *Pool) InFlight() int { return len(p.slots) }

// TryGo is Go without the wait: it returns false when no slot is free
// or the pool is closed.
func (p *Pool) TryGo(fn func()) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.wg.Add(1)
	p.mu.Unlock()
	select {
	case p.slots <- struct{}{}:
	default:
		p.wg.Done()
		return false
	}
	go p.run(fn)
	return true
}

// run executes one task: survive its panic, release the slot, then fire
// the idle hook so a scheduler can backfill the freed capacity.
func (p *Pool) run(fn func()) {
	defer p.wg.Done()
	func() {
		defer func() {
			recover()
			<-p.slots
		}()
		fn()
	}()
	if h := p.idle(); h != nil {
		func() {
			defer func() { recover() }()
			h()
		}()
	}
}

// Close refuses further submissions and waits for every in-flight fn to
// finish. It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}
