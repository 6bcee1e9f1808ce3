// Command perfbench is the repository benchmark: five workloads that
// drive the MultiNoC simulator through its public functions and hooks,
// check their outputs, and print end-to-end metrics (untraced run) or
// per-layer metrics (traced run). See README.md for the workloads, the
// metrics and how the two relate.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mesh-light --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDecl names a reported metric and its unit; the lists below must
// match BENCHMARK.json (TestDeclarationsMatchBenchmarkJSON).
type metricDecl struct{ name, unit string }

var endToEnd = []metricDecl{
	{"simcycles_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"request_ms", "ms"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
}

var perLayer = []metricDecl{
	{"sim.executed_cycles", "count"},
	{"sim.warped_cycles", "count"},
	{"sim.warp_frac", "ratio"},
	{"sim.active_per_cycle", "count"},
	{"sim.ns_per_eval", "ns"},
	{"sim.ns_per_executed_cycle", "ns"},
	{"sim.parallel_speedup", "ratio"},
	{"noc.build_s", "s"},
	{"noc.flit_hops", "count"},
	{"noc.flit_hops_per_cycle", "count"},
	{"noc.ns_per_flit_hop", "ns"},
	{"noc.blocked_per_routed", "ratio"},
	{"noc.packets_routed", "count"},
	{"noc.wait_cycles_per_packet", "cycles"},
	{"noc.buffered_flits_per_router", "flits"},
	{"traffic.sim_s", "s"},
	{"traffic.accepted_frac", "ratio"},
	{"traffic.latency_mean_cycles", "cycles"},
	{"traffic.measured_packets", "count"},
	{"core.new_s", "s"},
	{"core.boot_s", "s"},
	{"edge.load_kernels_s", "s"},
	{"edge.process_s", "s"},
	{"edge.ns_per_line", "ns"},
	{"edge.sim_cycles_per_line", "cycles"},
	{"host.frames_sent", "count"},
	{"host.frames_recv", "count"},
	{"r8.retired", "count"},
	{"r8.ns_per_instr", "ns"},
	{"r8.cpi", "cycles"},
	{"sweep.start_s", "s"},
	{"sweep.replay_s", "s"},
	{"sweep.journal_bytes", "B"},
	{"sweep.job_run_s", "s"},
	{"sweep.worker_busy_frac", "ratio"},
	{"sweep.overhead_ms_per_job", "ms"},
	{"sweep.retries", "count"},
	{"sweep.failed_jobs", "count"},
	{"sweep.cache_hit_frac", "ratio"},
	{"sweep.journal_bytes_per_cached_submit", "B"},
	{"sweep.response_kb", "KB"},
	{"sweep.cached_submit_p50_ms", "ms"},
	{"sweep.cached_submit_p90_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// params is what every workload receives.
type params struct {
	seed    uint64
	seconds float64
	traced  bool
	workdir string
	name    string
}

// opTracer is the tracer for operation op: a traced run alternates
// traced and untraced operations, so the per-layer numbers and the
// tracing overhead come from the same run.
func (p params) opTracer(tr *tracer, op int) *tracer {
	if !p.traced || op%2 == 1 {
		return nil
	}
	return tr
}

// report is a workload's outcome. e2e and layer hold metric values by
// name; stats holds the simulated statistics, which repeat exactly for
// a given seed.
type report struct {
	attempted, failed int
	e2e, layer        map[string]float64
	stats             []string
	tr                *tracer
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// notExercised reads 0 for every per-layer metric of the layers with
// these name prefixes: the workload does not run them.
func (r *report) notExercised(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.layer[d.name] = 0
			}
		}
	}
}

// fail counts one failed operation and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// check counts one attempted operation, failed when err is non-nil.
func (r *report) check(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// overhead is how much slower traced operations ran than untraced ones
// of the same run, from their mean host seconds per operation.
func overhead(tracedS, untracedS []float64) float64 {
	if len(tracedS) == 0 || len(untracedS) == 0 {
		return 0
	}
	return ratio(sum(tracedS)/float64(len(tracedS)), sum(untracedS)/float64(len(untracedS))) - 1
}

var workloads = map[string]func(params) (*report, error){
	"mesh-light":          func(p params) (*report, error) { return runMesh(p, meshLight) },
	"mesh-saturated":      func(p params) (*report, error) { return runMesh(p, meshSaturated) },
	"mesh-saturated-2dom": func(p params) (*report, error) { return runMesh(p, meshSaturated2Dom) },
	"system-edge":         runSystemEdge,
	"sweep-batch":         runSweepBatch,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the final line: the end-to-end metrics untraced,
// the per-layer ones traced. A declared metric the workload did not
// produce is an error, never a silent gap.
func (r *report) result(traced bool) (resultOut, error) {
	decls, vals := endToEnd, r.e2e
	if traced {
		decls, vals = perLayer, r.layer
	}
	out := resultOut{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(decls)),
	}
	for _, d := range decls {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for journals and traces")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: *seconds, traced: *trace == 1, workdir: *workdir, name: *workload}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d nproc=%d %s\n",
		p.name, p.seed, p.seconds, *trace, runtime.NumCPU(), runtime.Version())

	rep, err := run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.name, err)
		os.Exit(1)
	}
	for _, s := range rep.stats {
		fmt.Println("sim-stats", s)
	}
	if p.traced {
		path := filepath.Join(p.workdir, "traces", fmt.Sprintf("%s-seed%d.json", p.name, p.seed))
		if err := rep.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("trace written to", path)
	}
	out, err := rep.result(p.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// minOps is the fewest operations a run makes however short --seconds.
const minOps = 3

// deadline is when a run stops starting new operations.
func (p params) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(p.seconds * float64(time.Second)))
}

// allocMB reads the bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}
