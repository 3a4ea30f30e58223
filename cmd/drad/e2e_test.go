// End-to-end test of the serving stack: it builds the real drad and
// dractl binaries, boots drad on a loopback port, and drives it the way
// an operator would — including the SIGTERM drain and the restart that
// must resume a half-finished Monte-Carlo job bit-identically.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobs"
)

// buildBinaries compiles drad and dractl into a shared temp dir once
// per test run.
func buildBinaries(t *testing.T) (drad, dractl string) {
	t.Helper()
	dir := t.TempDir()
	drad = filepath.Join(dir, "drad")
	dractl = filepath.Join(dir, "dractl")
	for bin, pkg := range map[string]string{drad: "repro/cmd/drad", dractl: "repro/cmd/dractl"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	return drad, dractl
}

// dradProc is one running drad instance.
type dradProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
}

var addrRe = regexp.MustCompile(`http://([0-9.]+:[0-9]+)`)

// startDrad boots drad on a kernel-chosen loopback port and parses the
// bound address off its first stdout line.
func startDrad(t *testing.T, bin, stateDir string) *dradProc {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state-dir", stateDir, "-workers", "2")
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
	// Keep draining stdout so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	return &dradProc{cmd: cmd, base: "http://" + m[1]}
}

// run invokes dractl against the instance and returns stdout.
func (p *dradProc) run(t *testing.T, dractl string, args ...string) []byte {
	t.Helper()
	out, err := p.runErr(dractl, args...)
	if err != nil {
		t.Fatalf("dractl %v: %v\n%s", args, err, out)
	}
	return out
}

func (p *dradProc) runErr(dractl string, args ...string) ([]byte, error) {
	full := append([]string{"-addr", p.base}, args...)
	cmd := exec.Command(dractl, full...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	if err != nil {
		// Stderr (progress notices, server errors) matters only on
		// failure; merging it into stdout would corrupt JSON output.
		return append(out.Bytes(), errb.Bytes()...), err
	}
	return out.Bytes(), nil
}

// snapshotOf decodes a dractl status/submit JSON document.
func snapshotOf(t *testing.T, data []byte) jobs.Snapshot {
	t.Helper()
	var snap jobs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("decoding snapshot %q: %v", data, err)
	}
	return snap
}

func writeSpec(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// The slow Monte-Carlo spec: big enough that SIGTERM lands mid-run,
// with a batch size that forces checkpoints early.
const slowMCSpec = `{"kind": "reliability",
 "router": {"n": 9, "m": 2},
 "mc": {"horizon": 40000, "reps": 60000, "seed": 7, "batch": 500}}`

func TestServeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real binaries")
	}
	dradBin, dractlBin := buildBinaries(t)
	stateDir := filepath.Join(t.TempDir(), "state")

	srv := startDrad(t, dradBin, stateDir)
	defer srv.cmd.Process.Kill()

	// A figure job end to end through the client.
	figSpec := writeSpec(t, "fig6.json", `{"kind": "figure", "figure": {"fig": 6}}`)
	out := srv.run(t, dractlBin, "submit", "-wait", figSpec)
	if !bytes.Contains(out, []byte("Figure 6")) {
		t.Fatalf("figure job result does not render Figure 6:\n%s", out)
	}

	// The identical spec again: must be served from the store (HTTP 200,
	// cached snapshot) — dractl prints the snapshot without waiting.
	snap := snapshotOf(t, srv.run(t, dractlBin, "submit", figSpec))
	if !snap.Cached || snap.State != jobs.StateDone {
		t.Fatalf("second figure submit not a cache hit: %+v", snap)
	}

	// Submit the slow MC job and let it get far enough to checkpoint.
	mcSpec := writeSpec(t, "mc.json", slowMCSpec)
	mc := snapshotOf(t, srv.run(t, dractlBin, "submit", mcSpec))
	ckpt := filepath.Join(stateDir, "checkpoints", mc.ID+".ckpt")
	waitFor(t, 20*time.Second, "first MC checkpoint", func() bool {
		_, err := os.Stat(ckpt)
		return err == nil
	})

	// SIGTERM mid-job: drad must drain (checkpointing the run) and exit
	// with the shared interrupted code.
	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := srv.cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("drained drad exit: %v (want exit code 130)", err)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "pending", mc.ID+".json")); err != nil {
		t.Fatalf("pending spec not persisted across drain: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint lost in drain: %v", err)
	}

	// Restart over the same state dir: the job requeues, resumes from
	// the checkpoint, and completes.
	srv2 := startDrad(t, dradBin, stateDir)
	defer srv2.cmd.Process.Kill()
	var final jobs.Snapshot
	waitFor(t, 60*time.Second, "resumed MC job to finish", func() bool {
		final = snapshotOf(t, srv2.run(t, dractlBin, "status", mc.ID))
		return final.State == jobs.StateDone
	})
	if !final.Resumed {
		t.Fatalf("restarted job did not resume from its checkpoint: %+v", final)
	}
	resumed := srv2.run(t, dractlBin, "result", mc.ID)

	// The figure result also survived the restart as a cache hit.
	snap = snapshotOf(t, srv2.run(t, dractlBin, "submit", figSpec))
	if !snap.Cached {
		t.Fatalf("figure result did not survive the restart: %+v", snap)
	}

	// Control: the same spec on a fresh instance, never interrupted.
	// The resumed run must be bit-identical to it — that is the paper's
	// dependability claim applied to the service itself.
	ctrlDir := filepath.Join(t.TempDir(), "control")
	ctrl := startDrad(t, dradBin, ctrlDir)
	defer ctrl.cmd.Process.Kill()
	control := ctrl.run(t, dractlBin, "submit", "-wait", mcSpec)
	if !bytes.Equal(normalizeJSON(t, resumed), normalizeJSON(t, control)) {
		t.Fatalf("resumed result differs from uninterrupted control:\nresumed: %s\ncontrol: %s", resumed, control)
	}
}

// normalizeJSON re-marshals a document so formatting differences cannot
// mask (or fake) a value difference.
func normalizeJSON(t *testing.T, data []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("normalizing %q: %v", data, err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
