package main

// compare: A against B, per workload and end-to-end metric, under each
// metric's bound.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// verdict compares the runs of one metric. a and b hold one value per
// run; the sign convention is undone by better. With at least two runs
// of A whose quartile spread exceeds the bound, the difference is
// unresolved unless every run of B beats every run of A.
func verdict(m metric, a, b []float64) (string, float64) {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved", 0
	}
	ma, mb := quantile(a, 0.5), quantile(b, 0.5)
	if ma == 0 {
		return "unresolved", 0
	}
	worse := (mb - ma) / ma // positive = B worse
	if m.Better == "higher" {
		worse = -worse
	}
	if len(a) >= 2 && (quantile(a, 0.75)-quantile(a, 0.25))/ma > m.Bound {
		if beatsAll(m, a, b) {
			return "better", worse
		}
		return "unresolved", worse
	}
	switch {
	case worse > m.Bound:
		return "worse", worse
	case worse < -m.Bound:
		return "better", worse
	}
	return "within", worse
}

// beatsAll reports whether every value of b is better than every value
// of a.
func beatsAll(m metric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "lower" && y >= x) || (m.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// loadRuns reads a comma-separated list of result files.
func loadRuns(list string) ([]*runFile, error) {
	var out []*runFile
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &rf)
	}
	return out, nil
}

// untracedValues collects one metric of one workload over runs. A run
// that is invalid, incorrect, or lacks the pass makes the set unusable.
func untracedValues(runs []*runFile, workload, name string) ([]float64, bool) {
	var vals []float64
	for _, rf := range runs {
		w := rf.Workloads[workload]
		if w == nil || w.Untraced == nil {
			return nil, false
		}
		if !w.Untraced.Correct || !w.Untraced.Valid {
			return nil, false
		}
		v, ok := w.Untraced.Metrics[name]
		if !ok {
			return nil, false
		}
		vals = append(vals, v.Value)
	}
	return vals, true
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: drabench compare A.json[,A2.json…] B.json[,B2.json…]")
		return 2
	}
	a, err := loadRuns(args[0])
	if err != nil {
		return fatal(err)
	}
	b, err := loadRuns(args[1])
	if err != nil {
		return fatal(err)
	}
	seen := map[string]bool{}
	for _, rf := range append(a, b...) {
		for w := range rf.Workloads {
			seen[w] = true
		}
	}
	var names []string
	for _, w := range workloads {
		if seen[w.Name] {
			names = append(names, w.Name)
		}
	}
	fmt.Printf("%-11s %-17s %14s %14s %9s  %s\n", "workload", "metric", "A median", "B median", "B vs A", "verdict (bound)")
	worse := false
	for _, w := range names {
		for _, m := range endToEnd {
			av, aok := untracedValues(a, w, m.Name)
			bv, bok := untracedValues(b, w, m.Name)
			v, d := "unresolved", 0.0
			if aok && bok {
				v, d = verdict(m, av, bv)
			}
			worse = worse || v == "worse"
			fmt.Printf("%-11s %-17s %14.6g %14.6g %+8.2f%%  %s (%g%% %s is better)\n",
				w, m.Name, quantile(av, 0.5), quantile(bv, 0.5), 100*d*sign(m), v, 100*m.Bound, m.Better)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// sign turns a "positive is worse" share back into B's raw change.
func sign(m metric) float64 {
	if m.Better == "higher" {
		return -1
	}
	return 1
}
