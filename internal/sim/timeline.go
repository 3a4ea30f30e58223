package sim

// UpDownTracker accumulates time-weighted up/down statistics for one
// monitored entity — the basis of the simulator's empirical availability
// estimates. State changes are recorded against the kernel clock.
type UpDownTracker struct {
	k        *Kernel
	up       bool
	lastFlip Time
	upTime   Time
	downTime Time
	flips    int
	// FirstDown records the first time the entity went down; it is the
	// empirical time-to-failure sample used by reliability estimation.
	firstDown   Time
	wentDownSet bool
}

// NewUpDownTracker starts tracking an entity that is initially up.
func NewUpDownTracker(k *Kernel) *UpDownTracker {
	return &UpDownTracker{k: k, up: true, lastFlip: k.Now(), firstDown: End}
}

// SetUp transitions the entity to up/down, accumulating elapsed time in the
// previous state. Redundant transitions are no-ops.
func (t *UpDownTracker) SetUp(up bool) {
	if up == t.up {
		return
	}
	t.accumulate()
	t.up = up
	t.flips++
	if !up && !t.wentDownSet {
		t.firstDown = t.k.Now()
		t.wentDownSet = true
	}
}

func (t *UpDownTracker) accumulate() {
	d := t.k.Now() - t.lastFlip
	if t.up {
		t.upTime += d
	} else {
		t.downTime += d
	}
	t.lastFlip = t.k.Now()
}

// Availability returns the fraction of elapsed time the entity was up,
// including the in-progress interval. It returns 1 if no time has elapsed.
func (t *UpDownTracker) Availability() float64 {
	t.accumulate()
	total := t.upTime + t.downTime
	if total == 0 {
		return 1
	}
	return float64(t.upTime / total)
}
