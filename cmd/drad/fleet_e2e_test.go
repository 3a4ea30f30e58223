// End-to-end test of the fleet: a real coordinator and two real worker
// processes, with one worker SIGKILLed mid-job — the lease expires, the
// coordinator requeues the lost shard, the survivor redoes it, and the
// merged result must be byte-identical to an uninterrupted standalone
// control. That is the tentpole dependability claim: a worker crash is
// absorbed, not observable in the output.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobs"
)

// bootDrad starts a prepared drad command and parses the bound address
// off its serving banner (same contract startDrad relies on).
func bootDrad(t *testing.T, cmd *exec.Cmd) *dradProc {
	t.Helper()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting drad: %v", err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		t.Fatalf("drad produced no startup line")
	}
	m := addrRe.FindStringSubmatch(sc.Text())
	if m == nil {
		cmd.Process.Kill()
		t.Fatalf("no address in startup line %q", sc.Text())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return &dradProc{cmd: cmd, base: "http://" + m[1]}
}

// startCoordinatorProc boots drad -role coordinator on a free port with
// a short lease TTL so failover happens in test time, not operator time.
func startCoordinatorProc(t *testing.T, bin, stateDir string) *dradProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-role", "coordinator",
		"-addr", "127.0.0.1:0",
		"-state-dir", stateDir,
		"-lease-ttl", "1500ms")
	return bootDrad(t, cmd)
}

// startWorkerProc boots drad -role worker pointed at the coordinator.
func startWorkerProc(t *testing.T, bin, base, id, stateDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-role", "worker",
		"-coordinator", base,
		"-worker-id", id,
		"-state-dir", stateDir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker %s: %v", id, err)
	}
	return cmd
}

// fleetStatusDoc mirrors the /v1/fleet fields this test reads.
type fleetStatusDoc struct {
	WorkersLive int  `json:"workers_live"`
	Degraded    bool `json:"degraded"`
	Leases      []struct {
		Worker string `json:"worker"`
		Job    string `json:"job"`
	} `json:"leases"`
	Expirations uint64 `json:"lease_expirations"`
	Requeues    uint64 `json:"requeues"`
}

func fleetStatus(t *testing.T, p *dradProc, dractl string) fleetStatusDoc {
	t.Helper()
	var st fleetStatusDoc
	out := p.run(t, dractl, "fleet")
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("decoding fleet status %q: %v", out, err)
	}
	return st
}

// The mid-kill Monte-Carlo spec: a fixed-count rare-event job heavy
// enough (~seconds) that a SIGKILL lands while shards are leased.
const fleetMCSpec = `{"kind": "rareevent",
 "router": {"n": 4, "m": 2},
 "mc": {"reps": 192, "seed": 23, "delta": 0.4, "cycles_per_rep": 1000, "workers": 1}}`

func TestFleetKillWorkerE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real binaries")
	}
	dradBin, dractlBin := buildBinaries(t)

	coordDir := filepath.Join(t.TempDir(), "coord")
	coord := startCoordinatorProc(t, dradBin, coordDir)
	defer coord.cmd.Process.Kill()

	workerDirs := t.TempDir()
	workers := map[string]*exec.Cmd{
		"e2e-w0": startWorkerProc(t, dradBin, coord.base, "e2e-w0", filepath.Join(workerDirs, "w0")),
		"e2e-w1": startWorkerProc(t, dradBin, coord.base, "e2e-w1", filepath.Join(workerDirs, "w1")),
	}
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
			w.Wait()
		}
	}()

	// Degraded before any worker registers is still serving (202s), then
	// both workers come up.
	waitFor(t, 15*time.Second, "both workers to register", func() bool {
		return fleetStatus(t, coord, dractlBin).WorkersLive == 2
	})

	spec := writeSpec(t, "fleet-mc.json", fleetMCSpec)
	snap := snapshotOf(t, coord.run(t, dractlBin, "submit", spec))

	// Wait until some worker actually holds a lease on the job, then
	// SIGKILL that worker — no drain, no goodbye, lease simply goes
	// silent and must expire.
	var victim string
	waitFor(t, 30*time.Second, "a worker to lease the job", func() bool {
		for _, l := range fleetStatus(t, coord, dractlBin).Leases {
			if l.Job == snap.ID {
				victim = l.Worker
				return true
			}
		}
		return false
	})
	w, ok := workers[victim]
	if !ok {
		t.Fatalf("lease held by unknown worker %q", victim)
	}
	if err := w.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	w.Wait()
	t.Logf("SIGKILLed %s mid-job", victim)

	// The survivor absorbs the loss: job completes despite the crash.
	var final jobs.Snapshot
	waitFor(t, 120*time.Second, "job to finish after the kill", func() bool {
		final = snapshotOf(t, coord.run(t, dractlBin, "status", snap.ID))
		return final.State == jobs.StateDone || final.State == jobs.StateFailed
	})
	if final.State != jobs.StateDone {
		t.Fatalf("job ended %s after worker kill: %s", final.State, final.Error)
	}
	merged := coord.run(t, dractlBin, "result", snap.ID)

	// The failover must have actually happened — a kill that landed
	// between shards would not prove recovery.
	st := fleetStatus(t, coord, dractlBin)
	if st.Expirations < 1 || st.Requeues < 1 {
		t.Fatalf("no lease expiry observed (expirations=%d requeues=%d): kill did not land mid-lease", st.Expirations, st.Requeues)
	}
	if st.WorkersLive != 1 {
		t.Fatalf("workers live after kill = %d, want 1", st.WorkersLive)
	}

	// Control: the same spec on an uninterrupted standalone instance.
	ctrl := startDrad(t, dradBin, filepath.Join(t.TempDir(), "control"))
	defer ctrl.cmd.Process.Kill()
	control := ctrl.run(t, dractlBin, "submit", "-wait", spec)
	if !bytes.Equal(normalizeJSON(t, merged), normalizeJSON(t, control)) {
		t.Fatalf("merged fleet result differs from uninterrupted standalone control:\nfleet:      %s\nstandalone: %s", merged, control)
	}
}

// TestFleetBenchSmoke runs the fleet-scaling bench at a toy size and
// schema-checks BENCH_fleet.json.
func TestFleetBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real binaries")
	}
	dradBin, dractlBin := buildBinaries(t)
	out := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	cmd := exec.Command(dractlBin, "bench",
		"-drad", dradBin, "-workers", "1,2", "-jobs", "2", "-reps", "128", "-out", out)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("bench: %v\n%s", err, b)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Jobs       int `json:"jobs"`
		RepsPerJob int `json:"reps_per_job"`
		Points     []struct {
			Workers    int     `json:"workers"`
			Jobs       int     `json:"jobs"`
			WallS      float64 `json:"wall_s"`
			JobsPerSec float64 `json:"jobs_per_sec"`
		} `json:"points"`
		SpeedupMax float64 `json:"speedup_max"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bench artifact: %v\n%s", err, data)
	}
	if doc.Jobs != 2 || doc.RepsPerJob != 128 || len(doc.Points) != 2 {
		t.Fatalf("bench artifact shape wrong: %s", data)
	}
	for _, p := range doc.Points {
		if p.Workers < 1 || p.Jobs != 2 || p.WallS <= 0 || p.JobsPerSec <= 0 {
			t.Fatalf("empty bench point %+v in %s", p, data)
		}
	}
	if doc.SpeedupMax <= 0 {
		t.Fatalf("speedup_max missing: %s", data)
	}
}
