package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/noc"
	"repro/internal/traffic"
)

// meshSpec is one synthetic-load design point on the paper's Hermes
// mesh with its default parameters (noc.Defaults). Only the traffic
// seed changes from one operation to the next.
type meshSpec struct {
	rate                     float64
	payload, warmup, measure int
	// domains > 1 splits the mesh into that many column-strip clock
	// domains run in parallel, one goroutine each.
	domains int
}

const meshSize = 16

var (
	// meshLight: the regime large-mesh sweeps spend their time in —
	// few components awake per cycle, so the activity scheduler's wake
	// and sleep churn dominates host time.
	meshLight = meshSpec{rate: 0.002, payload: 8, warmup: 1000, measure: 10000}
	// meshSaturated: every link carries a wormhole, so the router,
	// link and endpoint flit path dominates host time.
	meshSaturated = meshSpec{rate: 0.40, payload: 32, warmup: 500, measure: 1000}
	// meshSaturated2Dom: the same design point on the parallel kernel;
	// its Result must equal meshSaturated's.
	meshSaturated2Dom = meshSpec{rate: 0.40, payload: 32, warmup: 500, measure: 1000, domains: 2}
)

// meshDrain bounds the drain phase. It is far beyond what any of the
// design points needs; checkDrained fails an operation whose drain did
// not complete.
const meshDrain = 1_000_000

// meshOp is one measured traffic.Run call.
type meshOp struct {
	res          traffic.Result
	rs           noc.RouterStats // summed over the mesh after the drain
	wallS        float64         // traffic.Run entry to return
	buildS, simS float64         // entry to OnNetwork, OnNetwork to return
	allocMB      float64
	cycles       uint64
	// Kernel work, counted by Clock.Probe/ProbeRange on traced
	// operations only. activeSum adds ActiveCount after every executed
	// cycle; it stays 0 on a parallel group, whose ActiveCount reads
	// every domain while the others are running.
	executed, warped, activeSum uint64
}

// meshDesignPoint runs one design point. With a tracer it records the
// traffic.Run span with its build and simulation children and counts
// kernel work through the clock's probe hooks.
func meshDesignPoint(spec meshSpec, seed uint64, domains int, tr *tracer, op int) (meshOp, error) {
	var o meshOp
	var net *noc.Network
	var tOn time.Time
	root := tr.begin("traffic.Run", 0, op)
	build := tr.begin("noc.build", root, op)
	simSpan := 0
	cfg := traffic.Config{
		Rate: spec.rate, PayloadFlits: spec.payload, Seed: seed,
		Warmup: spec.warmup, Measure: spec.measure, Drain: meshDrain,
		Domains: domains, Parallel: domains > 1,
		OnNetwork: func(n *noc.Network) {
			tOn = time.Now()
			tr.end(build)
			net = n
			if tr != nil {
				clk := n.Clock()
				countActive := n.Group() == nil
				clk.Probe(func(uint64) {
					o.executed++
					if countActive {
						o.activeSum += uint64(clk.ActiveCount())
					}
				})
				clk.ProbeRange(func(from, to uint64) { o.warped += to - from + 1 })
			}
			simSpan = tr.begin("traffic.sim", root, op)
		},
	}
	a0 := allocMB()
	t0 := time.Now()
	res, err := traffic.Run(noc.Defaults(meshSize, meshSize), cfg)
	t1 := time.Now()
	o.allocMB = allocMB() - a0
	tr.end(simSpan)
	tr.end(root)
	if err != nil {
		return o, err
	}
	if net == nil {
		return o, errors.New("traffic.Run returned without calling OnNetwork")
	}
	o.res = res
	o.wallS = t1.Sub(t0).Seconds()
	o.buildS = tOn.Sub(t0).Seconds()
	o.simS = t1.Sub(tOn).Seconds()
	o.cycles = net.Clock().Cycle()
	o.rs = routerTotals(net)
	return o, checkDrained(net)
}

// routerTotals sums the router statistics of the whole mesh.
func routerTotals(net *noc.Network) (s noc.RouterStats) {
	cfg := net.Config()
	for x := 0; x < cfg.Width; x++ {
		for y := 0; y < cfg.Height; y++ {
			rs := net.Router(noc.Addr{X: x, Y: y}).Stats()
			for p, v := range rs.FlitsOut {
				s.FlitsOut[p] += v
			}
			s.PacketsRouted += rs.PacketsRouted
			s.BlockedAttempts += rs.BlockedAttempts
			s.WaitCycles += rs.WaitCycles
			s.BufferedFlitCycles += rs.BufferedFlitCycles
		}
	}
	return s
}

// runMesh repeats design points with fresh seeds until the run's time
// is up. The 2-domain workload re-runs design points on one domain as
// the reference its Results must equal: the first one always, and in a
// traced run every untraced one, which also gives the parallel speedup.
func runMesh(p params, spec meshSpec) (*report, error) {
	r := newReport()
	rng := rand.New(rand.NewPCG(p.seed, 0x6d657368))
	if p.traced {
		r.tr = newTracer()
		r.notExercised("core.", "edge.", "host.", "r8.", "sweep.")
	}

	var ops, tracedOps, untracedOps []meshOp
	var refSimS, parSimS float64
	deadline := p.deadline(time.Now())
	for op := 0; op < minOps || time.Now().Before(deadline); op++ {
		seed := rng.Uint64()
		tr := p.opTracer(r.tr, op)
		o, err := meshDesignPoint(spec, seed, spec.domains, tr, op)
		what := fmt.Sprintf("design point %d (seed %d)", op, seed)
		if err == nil && spec.domains > 1 && (op == 0 || (p.traced && tr == nil)) {
			var ref meshOp
			if ref, err = meshDesignPoint(spec, seed, 0, nil, op); err == nil {
				err = checkSameResult(o.res, ref.res)
				if tr == nil {
					refSimS += ref.simS
					parSimS += o.simS
				}
			}
		}
		if !r.check(what, err) {
			continue
		}
		if op == 0 {
			r.stats = append(r.stats, meshStats(seed, o))
		}
		ops = append(ops, o)
		if tr != nil {
			tracedOps = append(tracedOps, o)
		} else {
			untracedOps = append(untracedOps, o)
		}
	}
	if len(ops) == 0 {
		return r, nil
	}

	var simRate, wall, build, alloc []float64
	for _, o := range ops {
		simRate = append(simRate, float64(o.cycles)/o.simS)
		wall = append(wall, o.wallS)
		build = append(build, o.buildS)
		alloc = append(alloc, o.allocMB)
	}
	r.e2e["simcycles_per_s"] = fastRate(simRate)
	r.e2e["jobs_per_s"] = 1 / fastTime(wall)
	r.e2e["request_ms"] = fastTime(wall) * 1e3
	r.e2e["setup_s"] = median(build)
	r.e2e["alloc_mb"] = sum(alloc) / float64(len(ops))

	if p.traced && len(tracedOps) > 0 {
		r.meshLayers(tracedOps, untracedOps, refSimS, parSimS)
	}
	return r, nil
}

// meshLayers derives the per-layer metrics of a traced mesh run. Exact
// simulated statistics come from the first operation, whose seed is
// fixed by the run's seed; host-time ratios cover every traced one.
func (r *report) meshLayers(traced, untraced []meshOp, refSimS, parSimS float64) {
	first := traced[0]
	var simS float64
	var executed, active, hops uint64
	var tracedWall, untracedWall []float64
	for _, o := range traced {
		simS += o.simS
		executed += o.executed
		active += o.activeSum
		hops += o.rs.TotalFlits()
		tracedWall = append(tracedWall, o.wallS)
	}
	for _, o := range untraced {
		untracedWall = append(untracedWall, o.wallS)
	}
	rs := first.rs
	l := r.layer
	l["sim.executed_cycles"] = float64(first.executed)
	l["sim.warped_cycles"] = float64(first.warped)
	l["sim.warp_frac"] = ratio(float64(first.warped), float64(first.executed+first.warped))
	l["sim.active_per_cycle"] = ratio(float64(first.activeSum), float64(first.executed))
	l["sim.ns_per_eval"] = ratio(simS*1e9, float64(active))
	l["sim.ns_per_executed_cycle"] = ratio(simS*1e9, float64(executed))
	l["sim.parallel_speedup"] = ratio(refSimS, parSimS)
	l["noc.build_s"] = median(r.tr.named("noc.build"))
	l["noc.flit_hops"] = float64(rs.TotalFlits())
	l["noc.flit_hops_per_cycle"] = ratio(float64(rs.TotalFlits()), float64(first.cycles))
	l["noc.ns_per_flit_hop"] = ratio(simS*1e9, float64(hops))
	l["noc.blocked_per_routed"] = ratio(float64(rs.BlockedAttempts), float64(rs.PacketsRouted))
	l["noc.packets_routed"] = float64(rs.PacketsRouted)
	l["noc.wait_cycles_per_packet"] = ratio(float64(rs.WaitCycles), float64(rs.PacketsRouted))
	l["noc.buffered_flits_per_router"] = ratio(float64(rs.BufferedFlitCycles), float64(first.cycles)*meshSize*meshSize)
	l["traffic.sim_s"] = median(r.tr.named("traffic.sim"))
	l["traffic.accepted_frac"] = ratio(first.res.Accepted, first.res.Offered)
	l["traffic.latency_mean_cycles"] = first.res.Latency.MeanCycles
	l["traffic.measured_packets"] = float64(first.res.MeasuredPackets)
	l["trace.overhead_frac"] = overhead(tracedWall, untracedWall)
	l["trace.spans"] = float64(len(r.tr.spans))
}

// meshStats formats the simulated statistics of one design point.
func meshStats(seed uint64, o meshOp) string {
	rs := o.rs
	return fmt.Sprintf("seed=%d cycles=%d accepted=%.6f delivered=%.6f latency_mean=%.4f latency_p95=%d packets=%d flit_hops=%d routed=%d blocked=%d",
		seed, o.cycles, o.res.Accepted, o.res.Delivered, o.res.Latency.MeanCycles, o.res.Latency.P95Cycles,
		o.res.MeasuredPackets, rs.TotalFlits(), rs.PacketsRouted, rs.BlockedAttempts)
}
