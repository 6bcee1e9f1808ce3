package main

import (
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/edge"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

func TestCheckDrainedRejectsUndeliveredPacket(t *testing.T) {
	clk := sim.NewClock()
	net, err := noc.New(clk, noc.Defaults(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	eps := map[noc.Addr]*noc.Endpoint{}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			a := noc.Addr{X: x, Y: y}
			if eps[a], err = net.NewEndpoint(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	if checkDrained(net) == nil {
		t.Error("accepted a mesh that sent nothing")
	}
	if _, err := eps[noc.Addr{}].Send(noc.Addr{X: 3, Y: 3}, make([]uint16, 8)); err != nil {
		t.Fatal(err)
	}
	// Step until the packet has left its source but not yet arrived.
	for eps[noc.Addr{}].Sent() == 0 {
		clk.Step()
	}
	if eps[noc.Addr{X: 3, Y: 3}].Received() != 0 {
		t.Fatal("packet arrived in the cycle it was sent; the check cannot be exercised")
	}
	if checkDrained(net) == nil {
		t.Error("accepted a mesh with a packet still in flight")
	}
	if err := clk.RunUntilQuiescent(100_000); err != nil {
		t.Fatal(err)
	}
	if err := checkDrained(net); err != nil {
		t.Errorf("drained mesh rejected: %v", err)
	}
}

func TestCheckSameResultRejectsAnyDifference(t *testing.T) {
	res, err := traffic.Run(noc.Defaults(4, 4), traffic.Config{Rate: 0.05, PayloadFlits: 4, Seed: 3, Warmup: 100, Measure: 500, Drain: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSameResult(res, res); err != nil {
		t.Errorf("identical results rejected: %v", err)
	}
	bad := res
	bad.Latency.MeanCycles += 1e-9
	if checkSameResult(bad, res) == nil {
		t.Error("accepted a result whose mean latency differs")
	}
	bad = res
	bad.MeasuredPackets++
	if checkSameResult(bad, res) == nil {
		t.Error("accepted a result with a different packet count")
	}
}

func TestCheckImageRejectsCorruptedPixel(t *testing.T) {
	img := randomImage(rand.New(rand.NewPCG(1, 2)))
	good := edge.Sobel(img)
	if err := checkImage(img, good); err != nil {
		t.Fatalf("golden output rejected: %v", err)
	}
	bad := edge.Sobel(img)
	bad[edgeH/2][edgeW/2] ^= 1
	if checkImage(img, bad) == nil {
		t.Error("accepted an output with one pixel flipped")
	}
	if checkImage(img, bad[:edgeH-1]) == nil {
		t.Error("accepted an output missing a line")
	}
}

type fakeProc bool

func (f fakeProc) Halted() bool { return bool(f) }

func TestCheckHaltedRejectsRunningKernel(t *testing.T) {
	if err := checkHalted(nil, fakeProc(true), fakeProc(true)); err != nil {
		t.Errorf("halted processors rejected: %v", err)
	}
	if checkHalted(nil, fakeProc(true), fakeProc(false)) == nil {
		t.Error("accepted a processor still running")
	}
	if checkHalted(errors.New("timeout"), fakeProc(true), fakeProc(true)) == nil {
		t.Error("accepted a failed StopKernels")
	}
}

func TestCheckBatchRejectsBadJobs(t *testing.T) {
	res := traffic.Result{Offered: 0.1, Accepted: 0.1, MeasuredPackets: 42}
	done := func(key string, cached bool) sweep.JobRecord {
		r := res
		return sweep.JobRecord{Key: key, Status: sweep.StatusDone, Result: &r, Cached: cached}
	}
	want := map[string]traffic.Result{"a": res, "b": res}
	good := sweep.BatchSnapshot{ID: "x", Done: true, Jobs: []sweep.JobRecord{done("a", true), done("b", true)}}
	if err := checkBatch(good, 2, want, true); err != nil {
		t.Fatalf("good batch rejected: %v", err)
	}

	corrupt := func(f func(*sweep.BatchSnapshot)) sweep.BatchSnapshot {
		s := good
		s.Jobs = []sweep.JobRecord{done("a", true), done("b", true)}
		f(&s)
		return s
	}
	for name, snap := range map[string]sweep.BatchSnapshot{
		"not done":      corrupt(func(s *sweep.BatchSnapshot) { s.Done = false }),
		"job missing":   corrupt(func(s *sweep.BatchSnapshot) { s.Jobs = s.Jobs[:1] }),
		"job failed":    corrupt(func(s *sweep.BatchSnapshot) { s.Jobs[1].Status = sweep.StatusFailed }),
		"no result":     corrupt(func(s *sweep.BatchSnapshot) { s.Jobs[0].Result = nil }),
		"recomputed":    corrupt(func(s *sweep.BatchSnapshot) { s.Jobs[0].Cached = false }),
		"wrong result":  corrupt(func(s *sweep.BatchSnapshot) { s.Jobs[1].Result.Accepted = 0.2 }),
		"wrong packets": corrupt(func(s *sweep.BatchSnapshot) { s.Jobs[0].Result.MeasuredPackets = 41 }),
	} {
		if checkBatch(snap, 2, want, true) == nil {
			t.Errorf("%s: batch accepted", name)
		}
	}
	if err := checkBatch(corrupt(func(s *sweep.BatchSnapshot) { s.Jobs[0].Cached = false }), 2, nil, false); err != nil {
		t.Errorf("fresh batch rejected: %v", err)
	}
}

func TestCheckNotRecomputed(t *testing.T) {
	if err := checkNotRecomputed(sweep.Stats{CacheHits: 32}); err != nil {
		t.Errorf("cache-only restart rejected: %v", err)
	}
	if checkNotRecomputed(sweep.Stats{Computed: 1, CacheHits: 31}) == nil {
		t.Error("accepted a restart that recomputed a job")
	}
}
