package main

import (
	"fmt"

	"repro/internal/edge"
	"repro/internal/noc"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// The output checks. Each returns nil when the output is right and an
// error naming the first defect otherwise; a workload counts an error
// as one failed operation.

// checkDrained requires every packet the endpoints sent to have been
// received once the run drained.
func checkDrained(net *noc.Network) error {
	cfg := net.Config()
	var sent, recv uint64
	for x := 0; x < cfg.Width; x++ {
		for y := 0; y < cfg.Height; y++ {
			ep := net.Endpoint(noc.Addr{X: x, Y: y})
			if ep == nil {
				return fmt.Errorf("no endpoint at %d%d", x, y)
			}
			sent += ep.Sent()
			recv += ep.Received()
		}
	}
	if sent == 0 {
		return fmt.Errorf("no packet was sent")
	}
	if sent != recv {
		return fmt.Errorf("%d packets sent but %d received after drain", sent, recv)
	}
	return nil
}

// checkSameResult requires a result to equal its reference bit for bit.
func checkSameResult(got, want traffic.Result) error {
	if got != want {
		return fmt.Errorf("result %+v differs from reference %+v", got, want)
	}
	return nil
}

// checkImage requires the processed image to equal the golden Sobel
// edge map of the input.
func checkImage(in, out edge.Image) error {
	want := edge.Sobel(in)
	if out.H() != want.H() || out.W() != want.W() {
		return fmt.Errorf("output is %dx%d, want %dx%d", out.W(), out.H(), want.W(), want.H())
	}
	for y := range want {
		for x := range want[y] {
			if out[y][x] != want[y][x] {
				return fmt.Errorf("pixel (%d,%d) = %d, want %d", x, y, out[y][x], want[y][x])
			}
		}
	}
	return nil
}

// halter is the part of a processor the halt check reads.
type halter interface {
	Halted() bool
}

// checkHalted requires StopKernels to have succeeded and every
// processor to have halted.
func checkHalted(stopErr error, procs ...halter) error {
	if stopErr != nil {
		return fmt.Errorf("stop kernels: %w", stopErr)
	}
	for i, p := range procs {
		if !p.Halted() {
			return fmt.Errorf("processor %d still running after stop", i+1)
		}
	}
	return nil
}

// checkBatch requires every job of a batch to be done, with the result
// recorded in want for its key when want has one. cached additionally
// requires every job to have been served from the dedupe cache.
func checkBatch(snap sweep.BatchSnapshot, n int, want map[string]traffic.Result, cached bool) error {
	if !snap.Done || len(snap.Jobs) != n {
		return fmt.Errorf("batch %s: done=%v with %d of %d jobs", snap.ID, snap.Done, len(snap.Jobs), n)
	}
	for _, j := range snap.Jobs {
		if j.Status != sweep.StatusDone || j.Result == nil {
			return fmt.Errorf("job %s: status %s: %s", j.Key, j.Status, j.Error)
		}
		if cached && !j.Cached {
			return fmt.Errorf("job %s: recomputed instead of served from the cache", j.Key)
		}
		if w, ok := want[j.Key]; ok {
			if err := checkSameResult(*j.Result, w); err != nil {
				return fmt.Errorf("job %s: %w", j.Key, err)
			}
		}
	}
	return nil
}

// checkNotRecomputed requires a restarted service to have computed
// nothing: everything it served came from the replayed journal.
func checkNotRecomputed(st sweep.Stats) error {
	if st.Computed != 0 {
		return fmt.Errorf("restarted service recomputed %d jobs", st.Computed)
	}
	return nil
}
