// Command drabench is drad's end-to-end benchmark. It builds the real
// drad from this repository, stages a state dir of computed jobs, boots
// drad on copies of it with the shipped default flags, drives one of
// three workloads over loopback, checks every answer, and prints every
// metric by name with its unit. A traced pass instead records spans
// around every call and then times each layer's public functions in
// process. See README.md.
//
// Usage (from this directory):
//
//	go run . -seed 1 -out DIR                     # every workload, untraced and traced
//	go run . -workload hit-read -seed 3 -trace 1  # one pass of one workload
//	go run . compare A.json[,A2.json…] B.json[,B2.json…]
//
// A one-workload run ends its standard output with one JSON line:
// {"correct", "attempted", "failed", "metrics"}, the end-to-end metrics
// untraced and the per-layer metrics traced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
)

func main() {
	// The generator shares the host with drad; it gets at most two
	// threads of it.
	runtime.GOMAXPROCS(min(maxConns, runtime.NumCPU()))
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run: hit-read, cold-small, rare-e5b, or all")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 30, "measured seconds of an untraced pass (traced passes run half, rare-e5b one job)")
		trace    = flag.Int("trace", 0, "one-workload runs: 0 runs the untraced pass, 1 the traced pass and layer phase")
		work     = flag.String("work", "", "directory for the drad binary and state dirs (default: a temporary directory)")
		out      = flag.String("out", "", "directory for result.json and, from traced passes, <workload>.trace.json")
	)
	flag.Parse()
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	todo := names
	if *workload != "all" {
		if !slices.Contains(names, *workload) {
			return usage("unknown -workload %q", *workload)
		}
		todo = []string{*workload}
	}
	if *trace != 0 && *trace != 1 {
		return usage("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return usage("-seconds must be positive")
	}

	if *work == "" {
		dir, err := os.MkdirTemp("", "drabench-")
		if err != nil {
			return fatal(err)
		}
		defer os.RemoveAll(dir)
		*work = dir
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fatal(err)
	}
	runDir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(runDir)
	// drad children die with this process (Pdeathsig); a signal still
	// gets the scratch state removed.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(runDir)
		os.Exit(1)
	}()

	bin, err := buildDrad(*work)
	if err != nil {
		return fatal(err)
	}
	pl := defaultPlan(*seed, *seconds)
	rf, err := runAll(bin, runDir, pl, todo, *workload == "all", *trace == 1, *out)
	if err != nil {
		return fatal(err)
	}
	ok := report(os.Stdout, rf, todo)
	if *out != "" {
		if err := writeJSON(filepath.Join(*out, "result.json"), rf); err != nil {
			return fatal(err)
		}
	}
	if *workload != "all" {
		w := rf.Workloads[*workload]
		var ps *passResult
		var metrics map[string]value
		if *trace == 1 {
			ps, metrics = w.Traced, w.Traced.Layers
		} else {
			ps, metrics = w.Untraced, w.Untraced.Metrics
		}
		line, err := json.Marshal(map[string]any{
			"correct": ps.Correct, "attempted": ps.Attempted, "failed": ps.Failed, "metrics": metrics,
		})
		if err != nil {
			return fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

// runAll stages the template once and runs the requested passes: both
// of every workload when both is set, else the untraced or the traced
// one.
func runAll(bin, runDir string, pl plan, todo []string, both, traced bool, out string) (*runFile, error) {
	rf := &runFile{Host: host(runDir), Seed: pl.Seed, Seconds: pl.Seconds, Workloads: map[string]*workloadResult{}}
	tm, err := stage(bin, filepath.Join(runDir, "template"), pl)
	if err != nil {
		return nil, err
	}
	rf.StageS = tm.Took.Seconds()
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
	}
	for _, w := range todo {
		wr := &workloadResult{}
		rf.Workloads[w] = wr
		for _, tr := range []bool{false, true} {
			if !both && tr != traced {
				continue
			}
			p, err := runPass(bin, runDir, pl, tm, w, tr)
			if err != nil {
				return nil, fmt.Errorf("%s (traced %t): %w", w, tr, err)
			}
			r, err := p.result()
			if err != nil {
				return nil, err
			}
			if tr {
				wr.Traced = r
				if out != "" {
					if err := writeChromeTrace(filepath.Join(out, w+".trace.json"), w, p.spans()); err != nil {
						return nil, err
					}
				}
			} else {
				wr.Untraced = r
			}
		}
		if wr.Traced != nil && wr.Untraced != nil {
			f := wr.Traced.Metrics["latency_p50_ms"].Value/wr.Untraced.Metrics["latency_p50_ms"].Value - 1
			wr.OverheadFrac = &f
		}
	}
	return rf, nil
}

// report prints every metric by name with its unit, one per line, and
// returns whether every answer was correct.
func report(w *os.File, rf *runFile, todo []string) bool {
	ok := true
	fmt.Fprintf(w, "# drabench seed %d, %g s, host %d CPUs (GOMAXPROCS %d), %s, commit %s, state dir on %s, staging %.2f s\n",
		rf.Seed, rf.Seconds, rf.Host.CPUs, rf.Host.GOMAXPROCS, rf.Host.GoVersion, rf.Host.Commit, rf.Host.StateFS, rf.StageS)
	for _, name := range todo {
		wr := rf.Workloads[name]
		for _, ps := range []*passResult{wr.Untraced, wr.Traced} {
			if ps == nil {
				continue
			}
			kind, vals, defs := "untraced", ps.Metrics, endToEnd
			if ps == wr.Traced {
				kind = "traced"
			}
			fmt.Fprintf(w, "%s %s: attempted %d, failed %d, latency samples %d, requests %d",
				name, kind, ps.Attempted, ps.Failed, ps.Samples["latency"], ps.Samples["requests"])
			if ps.Samples["lateness"] > 0 {
				fmt.Fprintf(w, ", generator lateness p99 %.3f ms", ps.Lateness)
			}
			fmt.Fprintln(w)
			for _, m := range defs {
				fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.Name, vals[m.Name].Value, m.Unit)
			}
			for _, m := range perLayer {
				if v, found := ps.Layers[m.Name]; found {
					fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.Name, v.Value, m.Unit)
				}
			}
			for _, e := range ps.Errors {
				fmt.Fprintf(w, "  FAILED: %s\n", e)
			}
			if !ps.Valid {
				fmt.Fprintf(w, "  INVALID: generator lateness p99 %.3f ms exceeds %g ms; the latencies measure the generator\n", ps.Lateness, maxLatenessMs)
			}
			ok = ok && ps.Correct
		}
		if wr.OverheadFrac != nil {
			fmt.Fprintf(w, "  %-32s %14.6g ratio\n", "trace.overhead_frac", *wr.OverheadFrac)
		}
	}
	return ok
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "drabench: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "drabench: %v\n", err)
	return 1
}
