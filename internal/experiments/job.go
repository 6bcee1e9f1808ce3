package experiments

import (
	"context"
	"fmt"

	"repro/internal/noc"
	"repro/internal/traffic"
)

// TrafficJob is the serializable description of one design-space point:
// a mesh configuration plus a synthetic-load experiment on it. It is
// the job body of the sweep service (internal/sweep) — everything a
// batch submitter may vary is a plain field here, with routing
// algorithms and traffic patterns selected by name so a job survives a
// JSON round trip and two structurally equal jobs describe the same
// simulation.
//
// Zero fields mean "the MultiNoC default": mesh parameters fall back to
// noc.Defaults, the pattern to uniform, the routing to XY, and the
// phase lengths to a short steady-state window. Canonical() applies
// those defaults explicitly, which is what the sweep service hashes for
// its dedupe key.
type TrafficJob struct {
	// Mesh geometry and router parameters (0 → MultiNoC defaults).
	Width       int     `json:"width,omitempty"`
	Height      int     `json:"height,omitempty"`
	FlitBits    int     `json:"flitBits,omitempty"`
	BufDepth    int     `json:"bufDepth,omitempty"`
	RouteCycles int     `json:"routeCycles,omitempty"`
	ClockMHz    float64 `json:"clockMHz,omitempty"`
	// Routing selects the routing algorithm by name: "xy" (default),
	// "yx" or "westfirst".
	Routing string `json:"routing,omitempty"`
	// Pattern selects the traffic pattern by name — any name of the
	// traffic pattern library: "uniform" (default), "transpose",
	// "bitcomp", "bitrev", "hotspot" (weighted Hotspots, or the legacy
	// single HotspotX/Y/Fraction spot), "bursty", "trace" (replaying
	// Trace) or "multicast" (a SendMulti group per injection).
	Pattern         string  `json:"pattern,omitempty"`
	HotspotX        int     `json:"hotspotX,omitempty"`
	HotspotY        int     `json:"hotspotY,omitempty"`
	HotspotFraction float64 `json:"hotspotFraction,omitempty"`
	// Hotspots is the weighted hotspot set; when empty, Canonical lifts
	// the legacy single-spot fields into it.
	Hotspots []traffic.HotspotSpec `json:"hotspots,omitempty"`
	// BurstLen and BurstPeak modulate arrivals with the on/off burst
	// process (zero → library defaults for the "bursty" pattern, no
	// modulation otherwise).
	BurstLen  float64 `json:"burstLen,omitempty"`
	BurstPeak float64 `json:"burstPeak,omitempty"`
	// Trace is the injection log replayed by the "trace" pattern.
	Trace []traffic.TraceEntry `json:"trace,omitempty"`
	// Multicast is the destination set of the "multicast" pattern;
	// MulticastUnicast delivers it by unicast replication (the oracle
	// mode) instead of path-based forwarding.
	Multicast        []noc.Addr `json:"multicast,omitempty"`
	MulticastUnicast bool       `json:"multicastUnicast,omitempty"`
	// Load parameters, as in traffic.Config.
	Rate         float64 `json:"rate"`
	PayloadFlits int     `json:"payloadFlits,omitempty"`
	Seed         uint64  `json:"seed"`
	Warmup       int     `json:"warmup,omitempty"`
	Measure      int     `json:"measure,omitempty"`
	Drain        int     `json:"drain,omitempty"`
	QueueCap     int     `json:"queueCap,omitempty"`
	// Kernel execution knobs. They never change results — only how the
	// simulation is scheduled — so Canonical() drops Parallel from the
	// dedupe identity but keeps Domains (packet-ID numbering and the
	// Completed log ordering are partition-dependent).
	Domains  int  `json:"domains,omitempty"`
	Parallel bool `json:"parallel,omitempty"`
}

// defaultJob holds the phase-length fallbacks for zero-valued jobs: a
// short steady-state window that keeps a default job cheap while still
// measuring something.
const (
	defaultJobWarmup  = 500
	defaultJobMeasure = 2000
	defaultJobDrain   = 20000
)

// Canonical returns the job with every default applied explicitly —
// two jobs describing the same simulation canonicalize to equal
// structs, the basis of the sweep service's dedupe key. Parallel is
// cleared: it selects an execution strategy with bit-identical results,
// not a different experiment.
func (j TrafficJob) Canonical() TrafficJob {
	if j.Width == 0 {
		j.Width = 8
	}
	if j.Height == 0 {
		j.Height = 8
	}
	d := noc.Defaults(j.Width, j.Height)
	if j.FlitBits == 0 {
		j.FlitBits = d.FlitBits
	}
	if j.BufDepth == 0 {
		j.BufDepth = d.BufDepth
	}
	if j.RouteCycles == 0 {
		j.RouteCycles = d.RouteCycles
	}
	if j.ClockMHz == 0 {
		j.ClockMHz = d.ClockMHz
	}
	if j.Routing == "" {
		j.Routing = "xy"
	}
	if j.Pattern == "" {
		j.Pattern = "uniform"
	}
	if j.Pattern == "hotspot" && len(j.Hotspots) == 0 {
		// Lift the legacy single-spot form into the weighted set, so
		// both forms of the same experiment share one dedupe identity.
		// A zero fraction is the legacy spelling of uniform traffic.
		if j.HotspotFraction == 0 {
			j.Pattern = "uniform"
		} else {
			j.Hotspots = []traffic.HotspotSpec{{X: j.HotspotX, Y: j.HotspotY, Weight: j.HotspotFraction}}
		}
		j.HotspotX, j.HotspotY, j.HotspotFraction = 0, 0, 0
	}
	if j.Pattern == "bursty" || j.BurstLen != 0 || j.BurstPeak != 0 {
		if j.BurstLen == 0 {
			j.BurstLen = 8
		}
		if j.BurstPeak == 0 {
			j.BurstPeak = 0.5
		}
	}
	if j.PayloadFlits == 0 {
		j.PayloadFlits = 8
	}
	if j.Warmup == 0 {
		j.Warmup = defaultJobWarmup
	}
	if j.Measure == 0 {
		j.Measure = defaultJobMeasure
	}
	if j.Drain == 0 {
		j.Drain = defaultJobDrain
	}
	if j.QueueCap == 0 {
		j.QueueCap = 64
	}
	if j.Domains == 0 {
		j.Domains = 1
	}
	j.Parallel = false
	return j
}

// routings maps routing names to algorithms. Names, not function
// pointers, are the job-level identity: they serialize and compare.
var routings = map[string]noc.RoutingFunc{
	"xy":        noc.RouteXY,
	"yx":        noc.RouteYX,
	"westfirst": noc.RouteWestFirst,
}

// NoCConfig resolves the job's mesh configuration.
func (j TrafficJob) NoCConfig() (noc.Config, error) {
	j = j.Canonical()
	routing, ok := routings[j.Routing]
	if !ok {
		return noc.Config{}, fmt.Errorf("experiments: unknown routing %q", j.Routing)
	}
	return noc.Config{
		Width: j.Width, Height: j.Height,
		FlitBits: j.FlitBits, BufDepth: j.BufDepth,
		RouteCycles: j.RouteCycles, Routing: routing,
		ClockMHz: j.ClockMHz,
	}, nil
}

// patternSpec assembles the traffic pattern spec of the (canonical)
// job. Pattern-parameter validation lives in traffic.PatternSpec
// .Validate, reached through Config.Validate.
func (j TrafficJob) patternSpec() traffic.PatternSpec {
	s := traffic.PatternSpec{
		Name:             j.Pattern,
		Hotspots:         j.Hotspots,
		Trace:            j.Trace,
		Group:            j.Multicast,
		MulticastUnicast: j.MulticastUnicast,
	}
	if j.BurstLen != 0 || j.BurstPeak != 0 {
		s.Burst = &traffic.BurstSpec{Len: j.BurstLen, Peak: j.BurstPeak}
	}
	return s
}

// Validate reports the first reason the job cannot run, nil when it is
// well-formed. The sweep service maps a non-nil result to a client
// error (HTTP 400) at submission time, before a worker is spent on it.
func (j TrafficJob) Validate() error {
	c := j.Canonical()
	ncfg, err := c.NoCConfig()
	if err != nil {
		return err
	}
	return c.trafficConfig().Validate(ncfg)
}

// trafficConfig assembles the traffic.Config for the (canonical) job.
// Mesh-dependent pattern checks run in traffic.Config.Validate.
func (j TrafficJob) trafficConfig() traffic.Config {
	return traffic.Config{
		Spec: j.patternSpec(), Rate: j.Rate, PayloadFlits: j.PayloadFlits,
		Seed: j.Seed, Warmup: j.Warmup, Measure: j.Measure, Drain: j.Drain,
		QueueCap: j.QueueCap, Domains: j.Domains, Parallel: j.Parallel,
	}
}

// Run executes the job: an independent sim.Group of clock domains,
// mesh and injector set per call, so any number of jobs run
// concurrently without sharing simulator state. ctx bounds the run in
// wall-clock time and maxCycles (0 = unbounded) in simulated time; both
// surface as errors from the kernel's cancellation hook, never as hangs.
func (j TrafficJob) Run(ctx context.Context, maxCycles uint64) (traffic.Result, error) {
	c := j.Canonical()
	c.Parallel = j.Parallel // execution strategy is the caller's choice
	ncfg, err := c.NoCConfig()
	if err != nil {
		return traffic.Result{}, err
	}
	tcfg := c.trafficConfig()
	tcfg.Ctx = ctx
	tcfg.MaxCycles = maxCycles
	return traffic.Run(ncfg, tcfg)
}
