package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var cur, peak, runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		if err := p.Go(context.Background(), func() {
			defer wg.Done()
			c := cur.Add(1)
			for {
				pk := peak.Load()
				if c <= pk || peak.CompareAndSwap(pk, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			runs.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if runs.Load() != 50 {
		t.Fatalf("ran %d of 50", runs.Load())
	}
	if pk := peak.Load(); pk > 3 {
		t.Fatalf("peak concurrency %d exceeds 3 slots", pk)
	}
}

func TestPoolGoHonorsContext(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	release := make(chan struct{})
	if err := p.Go(context.Background(), func() { <-release }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Go(ctx, func() {}); err == nil {
		t.Fatal("Go on a full pool with an expiring context returned nil")
	}
	close(release)
}

func TestPoolTryGo(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	if !p.TryGo(func() { <-release }) {
		t.Fatal("TryGo on an empty pool refused")
	}
	if p.TryGo(func() {}) {
		t.Fatal("TryGo on a full pool accepted")
	}
	close(release)
	p.Close()
	if p.TryGo(func() {}) {
		t.Fatal("TryGo on a closed pool accepted")
	}
}

func TestPoolCloseWaitsAndRefuses(t *testing.T) {
	p := NewPool(2)
	var done atomic.Bool
	if err := p.Go(context.Background(), func() {
		time.Sleep(20 * time.Millisecond)
		done.Store(true)
	}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if !done.Load() {
		t.Fatal("Close returned before in-flight work finished")
	}
	if err := p.Go(context.Background(), func() {}); err == nil {
		t.Fatal("Go on a closed pool returned nil")
	}
}

func TestPoolSurvivesPanic(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	if err := p.Go(context.Background(), func() { defer wg.Done(); panic("boom") }); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The slot must have been released despite the panic.
	ran := make(chan struct{})
	if err := p.Go(context.Background(), func() { close(ran) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-time.After(time.Second):
		t.Fatal("slot leaked by panicking task")
	}
}

// Go runs fn on its own goroutine once a worker slot frees, blocking
// until then (or until ctx is cancelled). A panicking fn releases its
// slot and is reported as an error to no one — callers that care wrap
// fn with their own recovery; the pool only guarantees it survives.
func (p *Pool) Go(ctx context.Context, fn func()) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("sweep: pool is closed")
	}
	p.wg.Add(1)
	p.mu.Unlock()
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		p.wg.Done()
		return ctx.Err()
	}
	go p.run(fn)
	return nil
}
