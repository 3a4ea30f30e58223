// End-to-end soak of the telemetry pipeline: an observatory job's
// availability estimate must be queryable over HTTP while the job
// runs, survive a SIGTERM drain, and — after restart — extend its
// series with no gap and no duplicate window. The acceptance check is
// a byte-compare of the deterministic sample fields against an
// uninterrupted control run.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// The observatory spec: long enough that SIGTERM lands mid-run, with a
// batch small enough to publish many telemetry windows.
const observatorySpec = `{"kind": "observatory",
 "router": {"n": 9, "m": 2},
 "mc": {"reps": 40000, "seed": 11, "batch": 400, "cycles_per_rep": 10, "delta": 0.3}}`

// detSample is the deterministic projection of a telemetry sample:
// everything except wall-clock stamps and process-lifetime registry
// state, which legitimately differ across a drain/restart.
type detSample struct {
	Window       uint64  `json:"window"`
	Estimate     float64 `json:"estimate"`
	Availability float64 `json:"availability"`
	RelErr       float64 `json:"rel_err"`
	CIHalf       float64 `json:"ci_half"`
	ESS          float64 `json:"ess"`
	Trials       uint64  `json:"trials"`
}

func project(t *testing.T, samples []telemetry.Sample) []byte {
	t.Helper()
	out := make([]detSample, len(samples))
	for i, s := range samples {
		out[i] = detSample{
			Window: s.Window, Estimate: s.Estimate, Availability: s.Availability,
			RelErr: s.RelErr, CIHalf: s.CIHalf, ESS: s.ESS, Trials: s.Trials,
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// querySeries reads one job's full retained series through dractl.
func querySeries(t *testing.T, srv *dradProc, dractlBin, id string) telemetry.QueryResult {
	t.Helper()
	var qr telemetry.QueryResult
	out, err := srv.runErr(dractlBin, "query", id)
	if err != nil {
		t.Fatalf("dractl query %s: %v\n%s", id, err, out)
	}
	if err := json.Unmarshal(out, &qr); err != nil {
		t.Fatalf("decoding query output %q: %v", out, err)
	}
	return qr
}

func TestObservatoryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real binaries")
	}
	dradBin, dractlBin := buildBinaries(t)
	stateDir := filepath.Join(t.TempDir(), "state")

	srv := startDrad(t, dradBin, stateDir)
	defer srv.cmd.Process.Kill()

	spec := writeSpec(t, "observatory.json", observatorySpec)
	obs := snapshotOf(t, srv.run(t, dractlBin, "submit", spec))

	// The availability estimate must be live while the job runs: wait
	// for at least two published windows, then confirm in one breath
	// that the job is still running and the series already answers.
	var live telemetry.QueryResult
	waitFor(t, 30*time.Second, "two telemetry windows", func() bool {
		out, err := srv.runErr(dractlBin, "query", obs.ID)
		if err != nil {
			return false // series appears with the first window
		}
		if err := json.Unmarshal(out, &live); err != nil {
			return false
		}
		return len(live.Samples) >= 2
	})
	snap := snapshotOf(t, srv.run(t, dractlBin, "status", obs.ID))
	if snap.State != jobs.StateRunning {
		t.Fatalf("job not running while telemetry answered: %+v", snap)
	}
	last := live.Samples[len(live.Samples)-1]
	if last.Availability <= 0 || last.Availability > 1 || last.Trials == 0 {
		t.Fatalf("live sample lacks a usable availability estimate: %+v", last)
	}

	// The fleet summary and live tail see the same run: `top` is smoke
	// (it must render), the tail must deliver a sample for this job.
	srv.run(t, dractlBin, "top")
	tailCtx, tailCancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer tailCancel()
	req, err := http.NewRequestWithContext(tailCtx, http.MethodGet, srv.base+"/v1/telemetry/tail", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sawTailSample := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Type   string            `json:"type"`
			Sample *telemetry.Sample `json:"sample"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad tail line %q: %v", sc.Text(), err)
		}
		if line.Type == "sample" && line.Sample != nil && line.Sample.Job == obs.ID {
			sawTailSample = true
			break
		}
	}
	resp.Body.Close()
	tailCancel()
	if !sawTailSample {
		t.Fatalf("fleet tail never delivered a sample for %s (scan err %v)", obs.ID, sc.Err())
	}

	// Drain mid-run. The hub flushes after the engines checkpoint, so
	// every published window is durable.
	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = srv.cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("drained drad exit: %v (want exit code 130)", err)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "pending", obs.ID+".json")); err != nil {
		t.Fatalf("pending spec not persisted across drain: %v", err)
	}

	// Restart over the same state dir: the series must already answer
	// from its persisted windows before the resumed engine adds more.
	srv2 := startDrad(t, dradBin, stateDir)
	defer srv2.cmd.Process.Kill()
	persisted := querySeries(t, srv2, dractlBin, obs.ID)
	if len(persisted.Samples) == 0 {
		t.Fatal("restarted drad lost the persisted telemetry series")
	}

	var final jobs.Snapshot
	waitFor(t, 120*time.Second, "resumed observatory to finish", func() bool {
		final = snapshotOf(t, srv2.run(t, dractlBin, "status", obs.ID))
		return final.State == jobs.StateDone
	})
	if !final.Resumed {
		t.Fatalf("restarted observatory did not resume from its checkpoint: %+v", final)
	}
	merged := querySeries(t, srv2, dractlBin, obs.ID)

	// Control: the same spec on a fresh instance, never interrupted.
	ctrlDir := filepath.Join(t.TempDir(), "control")
	ctrl := startDrad(t, dradBin, ctrlDir)
	defer ctrl.cmd.Process.Kill()
	ctrl.run(t, dractlBin, "submit", "-wait", spec)
	control := querySeries(t, ctrl, dractlBin, obs.ID)

	// No gap, no duplicate: strictly increasing windows, and the merged
	// drained+resumed series byte-matches the uninterrupted control on
	// every deterministic field.
	for i := 1; i < len(merged.Samples); i++ {
		if merged.Samples[i].Window <= merged.Samples[i-1].Window {
			t.Fatalf("merged series windows not strictly increasing at %d: %d after %d",
				i, merged.Samples[i].Window, merged.Samples[i-1].Window)
		}
	}
	if len(merged.Samples) != len(control.Samples) {
		t.Fatalf("merged series has %d windows, control %d", len(merged.Samples), len(control.Samples))
	}
	if got, want := project(t, merged.Samples), project(t, control.Samples); !bytes.Equal(got, want) {
		t.Fatalf("drained+resumed series differs from uninterrupted control:\nmerged:  %s\ncontrol: %s", got, want)
	}

	// The result documents agree too (same determinism claim, stated on
	// the stored artifact).
	resumedDoc := srv2.run(t, dractlBin, "result", obs.ID)
	controlDoc := ctrl.run(t, dractlBin, "result", obs.ID)
	if !bytes.Equal(normalizeJSON(t, resumedDoc), normalizeJSON(t, controlDoc)) {
		t.Fatalf("resumed result differs from control:\nresumed: %s\ncontrol: %s", resumedDoc, controlDoc)
	}
}
