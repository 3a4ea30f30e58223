package chaos

import (
	"fmt"
	"strings"
	"testing"
)

// fakeFleet is an in-memory FleetDriver: a set of named live workers.
type fakeFleet struct {
	live  map[string]bool
	kills []string
}

func newFakeFleet(names ...string) *fakeFleet {
	f := &fakeFleet{live: make(map[string]bool)}
	for _, n := range names {
		f.live[n] = true
	}
	return f
}

func (f *fakeFleet) KillWorker(name string) error {
	if !f.live[name] {
		return fmt.Errorf("worker %s not live", name)
	}
	f.live[name] = false
	f.kills = append(f.kills, name)
	return nil
}

func (f *fakeFleet) RestartWorker(name string) error {
	f.live[name] = true
	return nil
}

func (f *fakeFleet) WorkersLive() int {
	n := 0
	for _, up := range f.live {
		if up {
			n++
		}
	}
	return n
}

func workers(n int) *int { return &n }

// TestFleetEventsDriveTheDriver scripts a kill → assert-degraded →
// restart → assert-recovered timeline against the fake fleet, alongside
// ordinary router faults to show the two planes interleave.
func TestFleetEventsDriveTheDriver(t *testing.T) {
	c := Campaign{
		Name: "fleet-chaos", N: 4, M: 2, Seed: 3,
		Events: []Event{
			{At: 5, Kind: "expect-workers", Workers: workers(2)},
			{At: 10, Kind: "kill-worker", Worker: "w0"},
			{At: 11, Kind: "expect-workers", Workers: workers(1)},
			{At: 15, Kind: "fail", LC: 1, Component: "PDLU"},
			{At: 16, Kind: "expect", LC: 1, Up: up(true)},
			{At: 20, Kind: "restart-worker", Worker: "w0"},
			{At: 21, Kind: "expect-workers", Workers: workers(2)},
			{At: 30, Kind: "repair-storm"},
		},
	}
	fl := newFakeFleet("w0", "w1")
	res, err := Run(c, Options{Fleet: fl})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(fl.kills) != 1 || fl.kills[0] != "w0" {
		t.Fatalf("kills = %v, want [w0]", fl.kills)
	}
	if fl.WorkersLive() != 2 {
		t.Fatalf("final live workers = %d, want 2", fl.WorkersLive())
	}
}

// TestFleetExpectFailureReported: a wrong expect-workers count is a
// campaign failure, reported through Result.Err like router assertions.
func TestFleetExpectFailureReported(t *testing.T) {
	c := Campaign{
		Name: "fleet-wrong", N: 2, Seed: 1,
		Events: []Event{
			{At: 1, Kind: "kill-worker", Worker: "w0"},
			{At: 2, Kind: "expect-workers", Workers: workers(2)},
		},
	}
	res, err := Run(c, Options{Fleet: newFakeFleet("w0", "w1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FleetExpects) != 1 {
		t.Fatalf("FleetExpects = %+v, want one failure", res.FleetExpects)
	}
	fe := res.FleetExpects[0]
	if fe.Want != 2 || fe.Got != 1 {
		t.Fatalf("failure = %+v, want want=2 got=1", fe)
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "fleet assertion") {
		t.Fatalf("Err() = %v, want fleet assertion failure", err)
	}
}

// TestFleetEventsRequireDriver: scripting fleet faults without a driver
// is refused up front, and pure router campaigns never need one.
func TestFleetEventsRequireDriver(t *testing.T) {
	c := Campaign{
		Name: "fleet-nodriver", N: 2, Seed: 1,
		Events: []Event{{At: 1, Kind: "kill-worker", Worker: "w0"}},
	}
	if _, err := Run(c, Options{}); err == nil || !strings.Contains(err.Error(), "Options.Fleet is nil") {
		t.Fatalf("Run without driver = %v, want refusal", err)
	}
	plain := Campaign{
		Name: "router-only", N: 2, Seed: 1,
		Events: []Event{{At: 1, Kind: "fail", LC: 0, Component: "SRU"}},
	}
	if _, err := Run(plain, Options{}); err != nil {
		t.Fatalf("router-only campaign needs no driver: %v", err)
	}
}

// TestFleetEventValidation covers the new kinds' spec errors.
func TestFleetEventValidation(t *testing.T) {
	bad := []Event{
		{At: 1, Kind: "kill-worker"},                                                    // no worker name
		{At: 1, Kind: "restart-worker"},                                                 // no worker name
		{At: 1, Kind: "expect-workers"},                                                 // no count
		{At: 1, Kind: "expect-workers", Workers: workers(-1)},                           // negative
		{At: 1, Kind: "common-mode", Sub: []Event{{Kind: "kill-worker", Worker: "w0"}}}, // no nesting
	}
	for i, e := range bad {
		c := Campaign{N: 2, Seed: 1, Events: []Event{e}}
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%s): validated, want error", i, e.Kind)
		}
	}
	good := Campaign{N: 2, Seed: 1, Events: []Event{
		{At: 1, Kind: "kill-worker", Worker: "w0"},
		{At: 2, Kind: "expect-workers", Workers: workers(0)},
		{At: 3, Kind: "restart-worker", Worker: "w0"},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good campaign rejected: %v", err)
	}
	if !good.HasFleetEvents() {
		t.Fatal("HasFleetEvents = false")
	}
}

// TestFleetEventErrorAbortsRun covers the driver-error path: a fleet
// action that fails kills the campaign with the step's label attached.
func TestFleetEventErrorAbortsRun(t *testing.T) {
	c := Campaign{
		Name: "bad-kill", N: 2, Seed: 1,
		Events: []Event{{At: 1, Kind: "kill-worker", Worker: "ghost"}},
	}
	_, err := Run(c, Options{Fleet: newFakeFleet("w0")})
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("Run = %v, want the driver's error surfaced", err)
	}
}

func TestPanicErrorMessage(t *testing.T) {
	p := &PanicError{Value: "boom"}
	if got := p.Error(); !strings.Contains(got, "boom") {
		t.Fatalf("Error() = %q", got)
	}
}
