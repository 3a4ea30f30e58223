package main

// The telemetry-plane subcommands: top (fleet summary), tail (live
// NDJSON feed) and query (one job's retained series).

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/telemetry"
)

// health mirrors the /healthz body.
type health struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
}

// cmdTop renders the fleet summary: service health, cross-job
// aggregates, and one row per telemetry series. With -interval it
// refreshes until interrupted.
func cmdTop(c *client, args []string) int {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", 0, "refresh cadence; 0 prints once and exits")
	fs.Parse(args)
	for {
		printTop(c)
		if *interval <= 0 {
			return lc.Exit(cli.ExitOK)
		}
		select {
		case <-time.After(*interval):
		case <-lc.Context().Done():
			return lc.Exit(0)
		}
	}
}

func printTop(c *client) {
	data, code := c.do(http.MethodGet, "/healthz", nil)
	// 503 is the draining report, not a failure; anything else is.
	if code != http.StatusOK && code != http.StatusServiceUnavailable {
		fatal(apiErr(data, code))
	}
	var h health
	if err := json.Unmarshal(data, &h); err != nil {
		fatal(fmt.Errorf("decoding healthz: %w", err))
	}
	data, code = c.do(http.MethodGet, "/v1/telemetry", nil)
	if code != http.StatusOK {
		fatal(apiErr(data, code))
	}
	var fl telemetry.FleetSummary
	if err := json.Unmarshal(data, &fl); err != nil {
		fatal(fmt.Errorf("decoding fleet summary: %w", err))
	}

	state := "serving"
	if h.Draining {
		state = "DRAINING"
	}
	fmt.Printf("drad %s  queued %d  running %d  |  ingested %d (%.1f samples/s)\n",
		state, h.Queued, h.Running, fl.Ingested, fl.SamplesPerSec)
	fmt.Printf("fleet availability %.6f  violation rate %.3g  trials/s %.1f\n",
		fl.FleetAvailability, fl.ViolationRate, fl.TrialsPerSec)
	if len(fl.Jobs) == 0 {
		fmt.Println("(no telemetry series)")
		return
	}
	fmt.Printf("%-16s %-12s %8s %10s %12s %10s %10s %6s\n",
		"JOB", "KIND", "SAMPLES", "WINDOW", "AVAIL", "RELERR", "TRIALS", "VIOL")
	for _, j := range fl.Jobs {
		id := j.Job
		if len(id) > 16 {
			id = id[:16]
		}
		avail, relerr, trials, viol := "-", "-", "-", "-"
		if j.Last != nil {
			if j.Last.Availability > 0 {
				avail = fmt.Sprintf("%.6f", j.Last.Availability)
			}
			if j.Last.RelErr > 0 {
				relerr = fmt.Sprintf("%.3g", j.Last.RelErr)
			}
			if j.Last.Trials > 0 {
				trials = fmt.Sprintf("%d", j.Last.Trials)
			}
			if j.Last.ViolationsTotal > 0 {
				viol = fmt.Sprintf("%d", j.Last.ViolationsTotal)
			}
		}
		fmt.Printf("%-16s %-12s %8d %10d %12s %10s %10s %6s\n",
			id, j.Kind, j.Samples, j.LastWindow, avail, relerr, trials, viol)
	}
}

// cmdTail streams the fleet-wide telemetry feed to stdout verbatim
// until interrupted.
func cmdTail(c *client, args []string) int {
	if len(args) != 0 {
		usageError(fmt.Errorf("tail takes no arguments"))
	}
	// The fleet tail is an indefinite stream: a dropped connection (the
	// server restarting under the tail) reconnects with backoff and
	// resumes; only the user's interrupt ends it.
	for attempt := 0; ; attempt++ {
		err := streamLines(c, "/v1/telemetry/tail")
		if lc.Interrupted() {
			return lc.Exit(0)
		}
		if err == nil {
			// Server closed the stream (e.g. shutdown); resume when back.
			err = fmt.Errorf("stream closed by server")
		}
		fmt.Fprintf(os.Stderr, "dractl: tail stream broke (%v), reconnecting\n", err)
		if !reconnectWait(attempt) {
			return lc.Exit(0)
		}
	}
}

// cmdQuery prints one job's retained series.
func cmdQuery(c *client, args []string) int {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	since := fs.Uint64("since", 0, "return only windows strictly after this one")
	limit := fs.Int("limit", 0, "page size; 0 = everything retained")
	// Accept the job ID before or after the flags: stdlib flag parsing
	// stops at the first positional, so `query <id> -since N` would
	// otherwise silently ignore the flags.
	var id string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	fs.Parse(args)
	switch {
	case id == "" && fs.NArg() == 1:
		id = fs.Arg(0)
	case id == "" || fs.NArg() != 0:
		usageError(fmt.Errorf("query wants exactly one job ID"))
	}
	path := "/v1/telemetry/" + id
	q := make([]string, 0, 2)
	if *since > 0 {
		q = append(q, "since="+strconv.FormatUint(*since, 10))
	}
	if *limit > 0 {
		q = append(q, "limit="+strconv.Itoa(*limit))
	}
	for i, kv := range q {
		if i == 0 {
			path += "?" + kv
		} else {
			path += "&" + kv
		}
	}
	data, code := c.do(http.MethodGet, path, nil)
	if code != http.StatusOK {
		fatal(apiErr(data, code))
	}
	printJSON(data)
	return lc.Exit(cli.ExitOK)
}
