package sim

// before reports whether a fires before b: earlier time, or FIFO among
// simultaneous events.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Heap is the kernel's future event list: a binary min-heap on (at, seq),
// the sequence breaking ties FIFO so simultaneous events fire in schedule
// order. The zero Heap is empty and ready to use.
//
// The DRA models keep small event populations — the shipped workloads
// peak at a few dozen to a couple of hundred pending events — so an
// O(log n) heap with no tuning parameters is all the kernel needs. It is
// implemented directly (not via container/heap) so the hot path has no
// interface boxing.
//
// Events handed to Push are owned by the heap until returned by Pop or
// detached by Remove; the kernel recycles them through its free list
// afterwards. The event's pos field holds its heap index, -1 while
// unqueued.
type Heap struct {
	es []*Event
}

// Len returns the number of queued events.
func (h *Heap) Len() int { return len(h.es) }

// PeekAt returns the minimum pending time without dequeuing.
func (h *Heap) PeekAt() (Time, bool) {
	if len(h.es) == 0 {
		return 0, false
	}
	return h.es[0].at, true
}

// Push enqueues the event. Its at and seq are already set and must not
// change while it is queued, except through Rebuild.
func (h *Heap) Push(e *Event) {
	e.pos = int32(len(h.es))
	h.es = append(h.es, e)
	h.up(int(e.pos))
}

// Pop removes and returns the minimum event by (at, seq), or nil when the
// heap is empty.
func (h *Heap) Pop() *Event {
	n := len(h.es)
	if n == 0 {
		return nil
	}
	e := h.es[0]
	last := h.es[n-1]
	h.es[n-1] = nil
	h.es = h.es[:n-1]
	if n > 1 {
		h.es[0] = last
		last.pos = 0
		h.down(0)
	}
	e.pos = -1
	return e
}

// Remove detaches a queued event, reporting whether it was queued.
func (h *Heap) Remove(e *Event) bool {
	i := int(e.pos)
	if i < 0 || i >= len(h.es) || h.es[i] != e {
		return false
	}
	n := len(h.es) - 1
	last := h.es[n]
	h.es[n] = nil
	h.es = h.es[:n]
	if i < n {
		h.es[i] = last
		last.pos = int32(i)
		if !h.down(i) {
			h.up(i)
		}
	}
	e.pos = -1
	return true
}

// Rebuild restores the heap order after the keys of arbitrarily many
// queued events changed (the kernel's RescheduleLazy/Commit path): a
// bottom-up heapify, O(n).
func (h *Heap) Rebuild() {
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// up restores the heap property from index i toward the root.
func (h *Heap) up(i int) {
	e := h.es[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h.es[parent]
		if !before(e, p) {
			break
		}
		h.es[i] = p
		p.pos = int32(i)
		i = parent
	}
	h.es[i] = e
	e.pos = int32(i)
}

// down restores the heap property from index i toward the leaves,
// reporting whether the element moved.
func (h *Heap) down(i int) bool {
	e := h.es[i]
	n := len(h.es)
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && before(h.es[r], h.es[l]) {
			min = r
		}
		c := h.es[min]
		if !before(c, e) {
			break
		}
		h.es[i] = c
		c.pos = int32(i)
		i = min
	}
	h.es[i] = e
	e.pos = int32(i)
	return i > start
}
