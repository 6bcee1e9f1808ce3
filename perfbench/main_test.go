package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, decl []metricDecl, js []entry) {
		if len(decl) != len(js) {
			t.Errorf("%s: %d declared here, %d in BENCHMARK.json", what, len(decl), len(js))
			return
		}
		for i := range decl {
			if decl[i].name != js[i].Name || decl[i].unit != js[i].Unit {
				t.Errorf("%s %d: %v here, %+v in BENCHMARK.json", what, i, decl[i], js[i])
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func TestResultRequiresEveryMetric(t *testing.T) {
	r := newReport()
	r.attempted = 1
	for _, d := range endToEnd[1:] {
		r.e2e[d.name] = 1
	}
	if _, err := r.result(false); err == nil {
		t.Error("result printed with an end-to-end metric missing")
	}
	r.e2e[endToEnd[0].name] = 1
	out, err := r.result(false)
	if err != nil || !out.Correct || len(out.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v, %v", out, err)
	}
	r.failed = 1
	if out, _ := r.result(false); out.Correct {
		t.Error("a run with a failed operation reported correct")
	}
}

// runShort runs a workload for its minimum number of operations.
func runShort(t *testing.T, name string, seed uint64, traced bool) *report {
	t.Helper()
	r, err := workloads[name](params{seed: seed, seconds: 1e-3, traced: traced, workdir: t.TempDir(), name: name})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed", name, r.failed, r.attempted)
	}
	if _, err := r.result(traced); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

func TestWorkloadsCheckAndRepeat(t *testing.T) {
	names := []string{"system-edge", "mesh-light"}
	if !testing.Short() {
		names = append(names, "mesh-saturated-2dom", "sweep-batch")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			a := runShort(t, name, 5, false)
			b := runShort(t, name, 5, true)
			c := runShort(t, name, 6, false)
			if len(a.stats) == 0 || a.stats[0] != b.stats[0] {
				t.Errorf("simulated statistics differ for one seed:\n%v\n%v", a.stats, b.stats)
			}
			if a.stats[0] == c.stats[0] {
				t.Errorf("seeds 5 and 6 gave the same inputs: %v", a.stats)
			}
		})
	}
}
