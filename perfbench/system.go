package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
)

// The system-edge image size. Each session sends one seeded random
// image of this size through the paper's Figure 1 system.
const edgeW, edgeH = 16, 16

// edgeProcs are the processor IDs the Sobel kernel runs on: both of the
// Figure 1 system's R8 cores.
var edgeProcs = []int{1, 2}

// edgeSession is one measured host session.
type edgeSession struct {
	wallS, newS, simS, processS float64
	allocMB                     float64
	cycles, processCycles       uint64
	retired, cpuCycles          uint64
	framesSent, framesRecv      uint64
	executed, warped, activeSum uint64 // probe counts, traced sessions only
}

// edgeSessionRun is the paper's host→MultiNoC→host application: build
// the system, boot it with autobaud, download and start the Sobel
// kernel on both processors over RS-232, push the image through the
// serial path, check it against the golden edge map and halt the
// kernels.
func edgeSessionRun(img edge.Image, tr *tracer, op int) (edgeSession, error) {
	var s edgeSession
	root := tr.begin("session", 0, op)
	defer tr.end(root)
	a0 := allocMB()
	t0 := time.Now()

	id := tr.begin("core.New", root, op)
	sys, err := core.New(core.Default())
	tr.end(id)
	t1 := time.Now()
	if err != nil {
		return s, err
	}
	if tr != nil {
		clk := sys.Clk
		clk.Probe(func(uint64) {
			s.executed++
			s.activeSum += uint64(clk.ActiveCount())
		})
		clk.ProbeRange(func(from, to uint64) { s.warped += to - from + 1 })
	}

	id = tr.begin("core.Boot", root, op)
	err = sys.Boot()
	tr.end(id)
	if err != nil {
		return s, fmt.Errorf("boot: %w", err)
	}
	d := edge.NewDriver(sys, edge.Serial, edgeW)
	id = tr.begin("edge.LoadKernels", root, op)
	err = d.LoadKernels(edgeProcs...)
	tr.end(id)
	if err != nil {
		return s, err
	}
	id = tr.begin("edge.Process", root, op)
	tp := time.Now()
	out, cyc, err := d.Process(img, edgeProcs...)
	s.processS = time.Since(tp).Seconds()
	tr.end(id)
	if err != nil {
		return s, err
	}
	id = tr.begin("edge.StopKernels", root, op)
	stopErr := d.StopKernels(edgeProcs...)
	tr.end(id)
	t2 := time.Now()
	s.allocMB = allocMB() - a0

	s.wallS = t2.Sub(t0).Seconds()
	s.newS = t1.Sub(t0).Seconds()
	s.simS = t2.Sub(t1).Seconds()
	s.cycles = sys.Clk.Cycle()
	s.processCycles = cyc
	for _, id := range edgeProcs {
		cpu := sys.Proc(id).CPU()
		s.retired += cpu.Retired
		s.cpuCycles += cpu.Cycles
	}
	s.framesSent, s.framesRecv = sys.Host.FramesSent, sys.Host.FramesRecv
	if err := checkImage(img, out); err != nil {
		return s, err
	}
	return s, checkHalted(stopErr, sys.Proc(1), sys.Proc(2))
}

// randomImage draws an edgeW x edgeH image from rng.
func randomImage(rng *rand.Rand) edge.Image {
	img := edge.NewImage(edgeW, edgeH)
	for y := range img {
		for x := range img[y] {
			img[y][x] = uint8(rng.IntN(256))
		}
	}
	return img
}

func runSystemEdge(p params) (*report, error) {
	r := newReport()
	rng := rand.New(rand.NewPCG(p.seed, 0x65646765))
	if p.traced {
		r.tr = newTracer()
		r.notExercised("noc.", "traffic.", "sweep.")
		r.layer["sim.parallel_speedup"] = 0
	}
	var all, traced []edgeSession
	var untracedWall []float64
	deadline := p.deadline(time.Now())
	for op := 0; op < minOps || time.Now().Before(deadline); op++ {
		tr := p.opTracer(r.tr, op)
		s, err := edgeSessionRun(randomImage(rng), tr, op)
		if !r.check(fmt.Sprintf("session %d", op), err) {
			continue
		}
		if op == 0 {
			r.stats = append(r.stats, fmt.Sprintf(
				"cycles=%d process_cycles=%d cycles_per_line=%.4f retired=%d cpi=%.6f frames_sent=%d frames_recv=%d",
				s.cycles, s.processCycles, float64(s.processCycles)/(edgeH-2), s.retired,
				float64(s.cpuCycles)/float64(s.retired), s.framesSent, s.framesRecv))
		}
		all = append(all, s)
		if tr != nil {
			traced = append(traced, s)
		} else {
			untracedWall = append(untracedWall, s.wallS)
		}
	}
	if len(all) == 0 {
		return r, nil
	}

	var simRate, wall, setup, alloc []float64
	for _, s := range all {
		simRate = append(simRate, float64(s.cycles)/s.simS)
		wall = append(wall, s.wallS)
		setup = append(setup, s.newS)
		alloc = append(alloc, s.allocMB)
	}
	r.e2e["simcycles_per_s"] = fastRate(simRate)
	r.e2e["jobs_per_s"] = 1 / fastTime(wall)
	r.e2e["request_ms"] = fastTime(wall) * 1e3
	r.e2e["setup_s"] = median(setup)
	r.e2e["alloc_mb"] = sum(alloc) / float64(len(all))

	if p.traced && len(traced) > 0 {
		r.edgeLayers(traced, untracedWall)
	}
	return r, nil
}

// edgeLayers derives the per-layer metrics of a traced system-edge run:
// exact simulated counts from the first session, host-time ratios from
// every traced one.
func (r *report) edgeLayers(traced []edgeSession, untracedWall []float64) {
	first := traced[0]
	var simS, processS float64
	var executed, active, retired uint64
	var tracedWall []float64
	for _, s := range traced {
		simS += s.simS
		processS += s.processS
		executed += s.executed
		active += s.activeSum
		retired += s.retired
		tracedWall = append(tracedWall, s.wallS)
	}
	const lines = edgeH - 2 // the border lines are not sent to the processors
	l := r.layer
	l["sim.executed_cycles"] = float64(first.executed)
	l["sim.warped_cycles"] = float64(first.warped)
	l["sim.warp_frac"] = ratio(float64(first.warped), float64(first.executed+first.warped))
	l["sim.active_per_cycle"] = ratio(float64(first.activeSum), float64(first.executed))
	l["sim.ns_per_eval"] = ratio(simS*1e9, float64(active))
	l["sim.ns_per_executed_cycle"] = ratio(simS*1e9, float64(executed))
	l["core.new_s"] = median(r.tr.named("core.New"))
	l["core.boot_s"] = median(r.tr.named("core.Boot"))
	l["edge.load_kernels_s"] = median(r.tr.named("edge.LoadKernels"))
	l["edge.process_s"] = median(r.tr.named("edge.Process"))
	l["edge.ns_per_line"] = processS * 1e9 / float64(lines*len(traced))
	l["edge.sim_cycles_per_line"] = float64(first.processCycles) / lines
	l["host.frames_sent"] = float64(first.framesSent)
	l["host.frames_recv"] = float64(first.framesRecv)
	l["r8.retired"] = float64(first.retired)
	l["r8.ns_per_instr"] = ratio(simS*1e9, float64(retired))
	l["r8.cpi"] = ratio(float64(first.cpuCycles), float64(first.retired))
	l["trace.overhead_frac"] = overhead(tracedWall, untracedWall)
	l["trace.spans"] = float64(len(r.tr.spans))
}
