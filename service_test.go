package dra

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/jobs"
)

// TestMCWorkersDefaultToGrantedSlots: a spec that leaves mc.workers at 0
// runs on the slots the manager granted at dispatch; an explicit value
// wins.
func TestMCWorkersDefaultToGrantedSlots(t *testing.T) {
	for _, c := range []struct{ spec, granted, want int }{
		{0, 2, 2},
		{0, 0, 0},
		{3, 2, 3},
		{1, 2, 1},
	} {
		sp := config.Spec{
			Kind:   config.KindReliability,
			Router: &config.RouterSpec{N: 4, M: 2},
			MC:     &config.MCSpec{Reps: 10, Workers: c.spec},
		}
		opt, err := mcOptions(context.Background(), jobs.RunContext{Workers: c.granted}, sp.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		if opt.Workers != c.want {
			t.Errorf("mc.workers %d with %d slots granted: engine Workers %d, want %d", c.spec, c.granted, opt.Workers, c.want)
		}
	}
}
