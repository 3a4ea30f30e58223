package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke builds drad and runs every workload, untraced and traced,
// at toy sizes: about a second each, with rare-e5b reduced to one
// 200-replication job. Every answer must check out and every report
// must carry exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds drad and runs every workload")
	}
	bin, err := buildDrad(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pl := plan{Seed: 7, Seconds: 1.5, Staged: 64, Boots: 2, HitRate: 500, RareReps: 200, RareJobs: 1}
	out := t.TempDir()
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	rf, err := runAll(bin, t.TempDir(), pl, names, true, false, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		w := rf.Workloads[name]
		for _, ps := range []*passResult{w.Untraced, w.Traced} {
			if ps == nil {
				t.Fatalf("%s: a pass is missing", name)
			}
			if !ps.Correct || ps.Failed != 0 || ps.Attempted == 0 {
				t.Errorf("%s: attempted %d, failed %d: %v", name, ps.Attempted, ps.Failed, ps.Errors)
			}
			if len(ps.Metrics) != len(endToEnd) {
				t.Errorf("%s: %d end-to-end metrics, want %d", name, len(ps.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if v := ps.Metrics[m.Name]; v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("%s: %s = %+v, want a positive value in %s", name, m.Name, v, m.Unit)
				}
			}
		}
		if len(w.Traced.Layers) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", name, len(w.Traced.Layers), len(perLayer))
		}
		data, err := os.ReadFile(filepath.Join(out, name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("%s trace: %v", name, err)
		}
		spans := 0
		for _, e := range tr.TraceEvents {
			if e.Ph == "X" {
				spans++
			}
		}
		if spans == 0 {
			t.Errorf("%s trace has no spans", name)
		}
	}
}
