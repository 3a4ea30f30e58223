package main

// bench: the worker-scaling benchmark. For each point it boots a
// private fleet — one drad coordinator plus K drad workers, all
// child processes of this CLI — submits a batch of shardable
// fixed-count Monte-Carlo jobs (MC workers pinned to 1 so parallelism
// comes from the fleet, per-point seeds so the content-addressed cache
// never short-circuits a point), waits for every job to complete, and
// records the wall-clock throughput. The artifact (BENCH_fleet.json)
// shows jobs/sec scaling with fleet size.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/httpretry"
	"repro/internal/jobs"
)

// fleetPoint is one worker-count measurement.
type fleetPoint struct {
	Workers    int     `json:"workers"`
	Jobs       int     `json:"jobs"`
	WallS      float64 `json:"wall_s"`
	JobsPerSec float64 `json:"jobs_per_sec"`
}

// fleetBenchDoc is the BENCH_fleet.json schema.
type fleetBenchDoc struct {
	Jobs       int `json:"jobs"`
	RepsPerJob int `json:"reps_per_job"`
	// CPUs is the host's logical CPU count. The workload is CPU-bound,
	// so speedup is clamped at min(workers, cpus): a fleet point with
	// more workers than cores measures dispatch overhead, not scaling.
	CPUs   int          `json:"cpus"`
	Points []fleetPoint `json:"points"`
	// SpeedupMax is max-workers throughput over 1-worker throughput
	// (0 when the 1-worker point was not measured).
	SpeedupMax float64 `json:"speedup_max"`
	// Note flags hardware-clamped runs so a flat curve is not misread
	// as a coordination bottleneck.
	Note string `json:"note,omitempty"`
}

func cmdBench(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		dradBin = fs.String("drad", "", "path to the drad binary to boot (required)")
		counts  = fs.String("workers", "1,2,4", "comma-separated worker counts; one bench point each")
		jobsN   = fs.Int("jobs", 6, "jobs per point")
		reps    = fs.Int("reps", 3072, "Monte-Carlo replications per job (shardable cost knob)")
		seed0   = fs.Uint64("seed-base", 50000, "first seed; every job of every point gets a distinct one")
		out     = fs.String("out", "BENCH_fleet.json", "benchmark artifact path")
	)
	fs.Parse(args)
	if *dradBin == "" {
		usageError(fmt.Errorf("bench requires -drad <path to drad binary>"))
	}
	if *jobsN < 1 || *reps < 1 {
		usageError(fmt.Errorf("bench: -jobs and -reps must be positive"))
	}
	var ks []int
	for _, s := range strings.Split(*counts, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || k < 1 {
			usageError(fmt.Errorf("bench: bad -workers entry %q", s))
		}
		ks = append(ks, k)
	}

	doc := fleetBenchDoc{Jobs: *jobsN, RepsPerJob: *reps, CPUs: runtime.NumCPU()}
	maxK := ks[0]
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
	if doc.CPUs < maxK {
		doc.Note = fmt.Sprintf("host reports %d logical CPU(s); CPU-bound speedup is clamped at min(workers, cpus), so points beyond %d workers measure dispatch overhead only", doc.CPUs, doc.CPUs)
		fmt.Fprintf(os.Stderr, "dractl: fleet bench: %s\n", doc.Note)
	}
	seed := *seed0
	for _, k := range ks {
		fmt.Fprintf(os.Stderr, "dractl: fleet bench point: %d workers, %d jobs × %d reps\n", k, *jobsN, *reps)
		pt := runFleetPoint(*dradBin, k, *jobsN, *reps, seed)
		seed += uint64(*jobsN)
		doc.Points = append(doc.Points, pt)
		fmt.Printf("  %d workers: %6.2f jobs/s (%.2fs wall)\n", k, pt.JobsPerSec, pt.WallS)
	}
	var base, best float64
	for _, p := range doc.Points {
		if p.Workers == 1 {
			base = p.JobsPerSec
		}
		if p.JobsPerSec > best {
			best = p.JobsPerSec
		}
	}
	if base > 0 {
		doc.SpeedupMax = best / base
		fmt.Printf("  max speedup over 1 worker: %.2fx\n", doc.SpeedupMax)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	return lc.Exit(0)
}

// runFleetPoint boots coordinator + k workers, pushes the batch
// through, and tears the fleet down.
func runFleetPoint(dradBin string, k, jobsN, reps int, seed0 uint64) fleetPoint {
	dir, err := os.MkdirTemp("", "fleet-bench-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	coord, base := startCoordinator(dradBin, filepath.Join(dir, "coord"))
	defer stopProc(coord)
	var workers []*exec.Cmd
	defer func() {
		for _, w := range workers {
			stopProc(w)
		}
	}()
	for i := 0; i < k; i++ {
		w := exec.Command(dradBin,
			"-role", "worker",
			"-coordinator", base,
			"-worker-id", fmt.Sprintf("bench-w%d", i),
			"-state-dir", filepath.Join(dir, fmt.Sprintf("w%d", i)))
		w.Stdout, w.Stderr = os.Stderr, os.Stderr
		if err := w.Start(); err != nil {
			fatal(err)
		}
		workers = append(workers, w)
	}

	hc := &http.Client{}
	c := &client{base: base, hc: hc, rc: &httpretry.Client{HC: hc}}
	waitWorkersLive(c, k)

	specs := make([][]byte, jobsN)
	for i := range specs {
		spec := config.Spec{
			Kind:   config.KindReliability,
			Router: &config.RouterSpec{N: 9, M: 2},
			// One engine thread per unit: the scaling measured is the
			// fleet's, not the local pool's.
			MC: &config.MCSpec{Horizon: 40000, Reps: reps, Seed: seed0 + uint64(i), Workers: 1},
		}
		b, err := json.Marshal(spec)
		if err != nil {
			fatal(err)
		}
		specs[i] = b
	}

	t0 := time.Now()
	ids := make([]string, jobsN)
	for i, spec := range specs {
		snap, code := c.submit(spec)
		if code != http.StatusAccepted {
			fatal(fmt.Errorf("fleet bench: submit got HTTP %d (cache hit? seeds must be unique)", code))
		}
		ids[i] = snap.ID
	}
	for _, id := range ids {
		final := c.poll(id)
		if final.State != jobs.StateDone {
			fatal(fmt.Errorf("fleet bench: job %s ended %s: %s", final.ID, final.State, final.Error))
		}
	}
	wall := time.Since(t0)

	return fleetPoint{
		Workers:    k,
		Jobs:       jobsN,
		WallS:      wall.Seconds(),
		JobsPerSec: float64(jobsN) / wall.Seconds(),
	}
}

// startCoordinator boots a coordinator on a free port and returns the
// process and its base URL, parsed from the serving banner.
func startCoordinator(dradBin, stateDir string) (*exec.Cmd, string) {
	cmd := exec.Command(dradBin,
		"-role", "coordinator",
		"-addr", "127.0.0.1:0",
		"-state-dir", stateDir,
		// Short leases mean snappy claim polls (heartbeat = TTL/3), so
		// dispatch latency does not pollute the scaling measurement.
		"-lease-ttl", "1s")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "serving on "); ok {
			base = strings.Fields(rest)[0]
			break
		}
	}
	if base == "" {
		stopProc(cmd)
		fatal(fmt.Errorf("fleet bench: coordinator printed no serving banner"))
	}
	// Keep draining the pipe so the child never blocks on a full buffer.
	go func() {
		for sc.Scan() {
		}
	}()
	return cmd, trimSlash(base)
}

// waitWorkersLive polls fleet status until k workers have registered.
func waitWorkersLive(c *client, k int) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, code := c.do(http.MethodGet, "/v1/fleet", nil)
		if code == http.StatusOK {
			var st struct {
				WorkersLive int `json:"workers_live"`
			}
			if json.Unmarshal(data, &st) == nil && st.WorkersLive >= k {
				return
			}
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("fleet bench: %d workers never registered", k))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// stopProc terminates a fleet child: polite interrupt first, kill after
// a grace period.
func stopProc(cmd *exec.Cmd) {
	if cmd == nil || cmd.Process == nil {
		return
	}
	cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}
