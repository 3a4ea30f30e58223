// Command dractl is the drad client and load generator.
//
// Usage:
//
//	dractl [-addr http://127.0.0.1:8080] <command> [args]
//
//	dractl submit spec.json        submit a job spec (add -wait to block)
//	dractl status <id>             job snapshot
//	dractl result <id>             stored result document
//	dractl cancel <id>             cancel a queued or running job
//	dractl list                    all known jobs (-limit, -since, -tenant)
//	dractl watch <id>              stream NDJSON progress until the job rests
//	dractl top                     fleet telemetry summary (add -interval to refresh)
//	dractl tail                    fleet-wide NDJSON telemetry live tail
//	dractl query <id>              one job's telemetry series (-since, -limit)
//	dractl fleet                   coordinator fleet status (workers, leases)
//	dractl keys create|list|revoke manage API keys (admin)
//	dractl audit                   query the audit log (-since, -tenant, -verb, -limit)
//	dractl config <subcommand>     show|candidate|diff|set|commit|rollback the
//	                               server's versioned configuration
//
// Authentication: -key <token> or the DRACTL_KEY environment variable
// attaches the API key to every request; omit both against a server
// that allows anonymous access.
//
//	dractl bench -drad <path>      worker-scaling bench (boots its own fleet) → BENCH_fleet.json
//
// The drad benchmark itself (cache hits, cold jobs, rare-event jobs,
// end to end and per layer) lives in bench/; see bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"repro/internal/cli"
	"repro/internal/httpretry"
	"repro/internal/jobs"
)

// lc owns the shared lifecycle (interrupt context, exit conventions).
var lc = cli.New("dractl")

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "http://127.0.0.1:8080", "drad base URL")
	key := flag.String("key", os.Getenv("DRACTL_KEY"), "API key token (default $DRACTL_KEY); empty relies on the server's anonymous door")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usageError(fmt.Errorf("want a command: submit, status, result, cancel, list, watch, top, tail, query, fleet, keys, audit, config, bench"))
	}
	hc := &http.Client{}
	c := &client{base: trimSlash(*addr), key: *key, hc: hc, rc: &httpretry.Client{HC: hc}}

	switch args[0] {
	case "keys":
		return cmdKeys(c, args[1:])
	case "audit":
		return cmdAudit(c, args[1:])
	case "config":
		return cmdConfig(c, args[1:])
	case "fleet":
		return cmdFleet(c, args[1:])
	case "submit":
		return cmdSubmit(c, args[1:])
	case "status":
		return cmdStatus(c, args[1:])
	case "result":
		return cmdResult(c, args[1:])
	case "cancel":
		return cmdCancel(c, args[1:])
	case "list":
		return cmdList(c, args[1:])
	case "watch":
		return cmdWatch(c, args[1:])
	case "top":
		return cmdTop(c, args[1:])
	case "tail":
		return cmdTail(c, args[1:])
	case "query":
		return cmdQuery(c, args[1:])
	case "bench":
		return cmdBench(args[1:])
	default:
		usageError(fmt.Errorf("unknown command %q", args[0]))
	}
	return cli.ExitOK
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// --- HTTP client ---

// client wraps the drad API. Every method threads the lifecycle context
// so SIGINT aborts an in-flight request.
type client struct {
	base string
	key  string // API token sent as Authorization: Bearer; "" = anonymous
	hc   *http.Client
	rc   *httpretry.Client
}

// auth attaches the API key to a request when one is configured.
func (c *client) auth(req *http.Request) {
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
}

// do issues one request and returns (body, status). Connection errors
// and retryable statuses (429/503, honoring Retry-After) are absorbed
// by capped exponential backoff with jitter, so a coordinator
// restarting mid-conversation costs a pause, not a dead CLI. Failures
// that survive the retry budget are fatal — a client that cannot reach
// the server at all has nothing useful to print but the error.
func (c *client) do(method, path string, body []byte) ([]byte, int) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(lc.Context(), method, c.base+path, rd)
	if err != nil {
		fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.auth(req)
	resp, err := c.rc.Do(req)
	if err != nil {
		if lc.Interrupted() {
			os.Exit(lc.Exit(0))
		}
		fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	return data, resp.StatusCode
}

// submit posts a spec; on 429 it honors Retry-After and retries until
// admitted or the context dies.
func (c *client) submit(spec []byte) (jobs.Snapshot, int) {
	for {
		data, code := c.do(http.MethodPost, "/v1/jobs", spec)
		if code == http.StatusTooManyRequests {
			select {
			case <-time.After(time.Second):
				continue
			case <-lc.Context().Done():
				os.Exit(lc.Exit(0))
			}
		}
		if code != http.StatusOK && code != http.StatusAccepted {
			fatal(apiErr(data, code))
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			fatal(fmt.Errorf("decoding response: %w", err))
		}
		return snap, code
	}
}

// poll blocks until the job rests (terminal or interrupted) and returns
// its final snapshot.
func (c *client) poll(id string) jobs.Snapshot {
	for {
		data, code := c.do(http.MethodGet, "/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			fatal(apiErr(data, code))
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			fatal(err)
		}
		if snap.State.Terminal() || snap.State == jobs.StateInterrupted {
			return snap
		}
		select {
		case <-time.After(25 * time.Millisecond):
		case <-lc.Context().Done():
			os.Exit(lc.Exit(0))
		}
	}
}

// apiErr decodes the server's uniform {"error": ...} body.
func apiErr(body []byte, code int) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", e.Error, code)
	}
	return fmt.Errorf("server: HTTP %d: %s", code, bytes.TrimSpace(body))
}

// printJSON pretty-prints a JSON document to stdout.
func printJSON(data []byte) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		os.Stdout.Write(data)
		fmt.Println()
		return
	}
	fmt.Println(buf.String())
}

// --- subcommands ---

func cmdSubmit(c *client, args []string) int {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	wait := fs.Bool("wait", false, "block until the job rests, then print its result")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usageError(fmt.Errorf("submit wants exactly one spec file"))
	}
	spec, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	snap, code := c.submit(spec)
	if code == http.StatusOK {
		fmt.Fprintf(os.Stderr, "dractl: cache hit for job %s\n", snap.ID)
	}
	if !*wait {
		out, _ := json.MarshalIndent(snap, "", "  ")
		fmt.Println(string(out))
		return lc.Exit(cli.ExitOK)
	}
	final := c.poll(snap.ID)
	if final.State != jobs.StateDone {
		fatal(fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error))
	}
	data, rc := c.do(http.MethodGet, "/v1/jobs/"+final.ID+"/result", nil)
	if rc != http.StatusOK {
		fatal(apiErr(data, rc))
	}
	printJSON(data)
	return lc.Exit(cli.ExitOK)
}

func cmdStatus(c *client, args []string) int {
	id := oneID("status", args)
	data, code := c.do(http.MethodGet, "/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		fatal(apiErr(data, code))
	}
	printJSON(data)
	return lc.Exit(cli.ExitOK)
}

func cmdResult(c *client, args []string) int {
	id := oneID("result", args)
	data, code := c.do(http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		fatal(apiErr(data, code))
	}
	printJSON(data)
	return lc.Exit(cli.ExitOK)
}

func cmdCancel(c *client, args []string) int {
	id := oneID("cancel", args)
	data, code := c.do(http.MethodDelete, "/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		fatal(apiErr(data, code))
	}
	printJSON(data)
	return lc.Exit(cli.ExitOK)
}

func cmdList(c *client, args []string) int {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	var (
		limit  = fs.Int("limit", 0, "cap the newest-first listing (0 = all)")
		since  = fs.String("since", "", "only jobs submitted after this RFC3339 time or unix-ms stamp")
		tenant = fs.String("tenant", "", "filter by tenant (admin keys only; others are scoped to their own)")
	)
	fs.Parse(args)
	q := url.Values{}
	if *limit > 0 {
		q.Set("limit", strconv.Itoa(*limit))
	}
	if *since != "" {
		q.Set("since", *since)
	}
	if *tenant != "" {
		q.Set("tenant", *tenant)
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	data, code := c.do(http.MethodGet, path, nil)
	if code != http.StatusOK {
		fatal(apiErr(data, code))
	}
	printJSON(data)
	return lc.Exit(cli.ExitOK)
}

// cmdFleet prints the coordinator's fleet status: workers, leases,
// sharded-job progress, requeue counters.
func cmdFleet(c *client, args []string) int {
	if len(args) != 0 {
		usageError(fmt.Errorf("fleet takes no arguments"))
	}
	data, code := c.do(http.MethodGet, "/v1/fleet", nil)
	if code == http.StatusNotFound {
		fatal(fmt.Errorf("server has no fleet (not running -role coordinator)"))
	}
	if code != http.StatusOK {
		fatal(apiErr(data, code))
	}
	printJSON(data)
	return lc.Exit(cli.ExitOK)
}

// streamLines opens a chunked NDJSON endpoint and copies its lines to
// stdout until the stream ends. A non-200 status is fatal (the route is
// wrong or the resource is gone, retrying won't help); a transport
// error — typically the server restarting under the stream — returns so
// the caller can reconnect.
func streamLines(c *client, path string) error {
	req, err := http.NewRequestWithContext(lc.Context(), http.MethodGet, c.base+path, nil)
	if err != nil {
		fatal(err)
	}
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		if lc.Interrupted() {
			os.Exit(lc.Exit(0))
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		fatal(apiErr(body, resp.StatusCode))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		fmt.Println(sc.Text())
	}
	return sc.Err()
}

// reconnectWait sleeps a capped exponential backoff between stream
// reconnect attempts; false means the user interrupted.
func reconnectWait(attempt int) bool {
	d := time.Duration(1<<min(attempt, 3)) * 500 * time.Millisecond
	select {
	case <-time.After(d):
		return true
	case <-lc.Context().Done():
		return false
	}
}

// cmdWatch streams the job's NDJSON progress lines to stdout verbatim
// until the job rests or the user interrupts. A dropped connection —
// the server restarting mid-watch — reconnects with backoff and keeps
// streaming; the replayed event history makes the seam visible but
// loses nothing.
func cmdWatch(c *client, args []string) int {
	id := oneID("watch", args)
	for attempt := 0; ; attempt++ {
		err := streamLines(c, "/v1/jobs/"+id+"/events")
		if err == nil {
			// Clean end of stream: the job is at rest.
			return lc.Exit(cli.ExitOK)
		}
		// c.do retries internally, so reaching it means the server is
		// back; a terminal or interrupted job has no more events coming.
		data, code := c.do(http.MethodGet, "/v1/jobs/"+id, nil)
		if code == http.StatusOK {
			var snap jobs.Snapshot
			if json.Unmarshal(data, &snap) == nil &&
				(snap.State.Terminal() || snap.State == jobs.StateInterrupted) {
				return lc.Exit(cli.ExitOK)
			}
		}
		fmt.Fprintf(os.Stderr, "dractl: watch stream broke (%v), reconnecting\n", err)
		if !reconnectWait(attempt) {
			return lc.Exit(0)
		}
	}
}

func oneID(cmd string, args []string) string {
	if len(args) != 1 {
		usageError(fmt.Errorf("%s wants exactly one job ID", cmd))
	}
	return args[0]
}

// usageError and fatal delegate to the shared lifecycle conventions
// (exit 2 for bad invocations, 1 for malfunctions).
func usageError(err error) { lc.UsageError(err) }

func fatal(err error) { lc.Fatal(err) }
