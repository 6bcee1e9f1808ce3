package main

import (
	"strings"
	"testing"
)

func TestBenchNameStripsProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkAblKernelSchedule/activity-nowarp-4": "BenchmarkAblKernelSchedule/activity-nowarp",
		"BenchmarkAblKernelSchedule/activity-nowarp":   "BenchmarkAblKernelSchedule/activity-nowarp",
		"BenchmarkFlitSteadyState":                     "BenchmarkFlitSteadyState",
		"BenchmarkFlitSteadyState-16":                  "BenchmarkFlitSteadyState",
	} {
		if got := benchName(in); got != want {
			t.Errorf("benchName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParse(t *testing.T) {
	in := `goos: linux
BenchmarkAblKernelSchedule/activity-nowarp-4   	       3	 123456 ns/op	  64000 simcycles/sec	 25196 allocs/op
BenchmarkFlitSteadyState 	   20000	      512 ns/op	       0 allocs/op
PASS
`
	entries, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("parsed %d entries, want 2: %+v", len(entries), entries)
	}
	e := entries[0]
	if e.Name != "BenchmarkAblKernelSchedule/activity-nowarp" || e.Iterations != 3 ||
		e.Metrics["simcycles/sec"] != 64000 || e.Metrics["allocs/op"] != 25196 {
		t.Errorf("entry 0 = %+v", e)
	}
	if e := entries[1]; e.Name != "BenchmarkFlitSteadyState" || e.Metrics["allocs/op"] != 0 {
		t.Errorf("entry 1 = %+v", e)
	}
}
