package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/traffic"
)

// fingerprintJobs is the fixed canonical job set behind
// ResultFingerprint: one job per pattern of the traffic library, path
// multicast and its unicast oracle, and a 2-domain sharded run. The
// jobs are small (8x8 mesh, short windows) but loaded enough that
// wormholes contend, so a change anywhere on the flit path shows up.
func fingerprintJobs() []experiments.TrafficJob {
	base := experiments.TrafficJob{
		Rate: 0.05, PayloadFlits: 6, Seed: 2004,
		Warmup: 200, Measure: 1000,
	}
	with := func(mod func(*experiments.TrafficJob)) experiments.TrafficJob {
		j := base
		mod(&j)
		return j
	}
	group := []noc.Addr{{X: 0, Y: 0}, {X: 7, Y: 2}, {X: 3, Y: 5}, {X: 6, Y: 7}}
	var trace []traffic.TraceEntry
	for i := 0; i < 24; i++ {
		trace = append(trace, traffic.TraceEntry{
			Cycle:   uint64(1 + 37*i),
			Src:     noc.Addr{X: i % 8, Y: (3 * i) % 8},
			Dst:     noc.Addr{X: (5 * i) % 8, Y: 7 - i%8},
			Payload: 1 + i%12,
		})
	}
	return []experiments.TrafficJob{
		with(func(j *experiments.TrafficJob) { j.Pattern = "uniform"; j.Rate = 0.1 }),
		with(func(j *experiments.TrafficJob) { j.Pattern = "transpose" }),
		with(func(j *experiments.TrafficJob) { j.Pattern = "bitcomp" }),
		with(func(j *experiments.TrafficJob) { j.Pattern = "bitrev" }),
		with(func(j *experiments.TrafficJob) {
			j.Pattern = "hotspot"
			j.Hotspots = []traffic.HotspotSpec{{X: 2, Y: 2, Weight: 0.3}, {X: 5, Y: 6, Weight: 0.2}}
		}),
		with(func(j *experiments.TrafficJob) { j.Pattern = "bursty"; j.BurstLen = 4; j.BurstPeak = 0.4 }),
		with(func(j *experiments.TrafficJob) { j.Pattern = "trace"; j.Trace = trace }),
		with(func(j *experiments.TrafficJob) { j.Pattern = "multicast"; j.Multicast = group; j.Rate = 0.02 }),
		with(func(j *experiments.TrafficJob) {
			j.Pattern = "multicast"
			j.Multicast = group
			j.MulticastUnicast = true
			j.Rate = 0.02
		}),
		with(func(j *experiments.TrafficJob) { j.Pattern = "uniform"; j.Rate = 0.1; j.Domains = 2 }),
	}
}

// TestResultFingerprint pins the Results of fingerprintJobs to
// ResultFingerprint. The dedupe cache serves a journaled result to any
// job with the same key, and the key changes only with CodeVersion, so
// a change that alters simulation results must bump CodeVersion and
// update ResultFingerprint together. A change that keeps this test
// passing unchanged needs no bump.
func TestResultFingerprint(t *testing.T) {
	h := sha256.New()
	for i, job := range fingerprintJobs() {
		canon, err := json.Marshal(job.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run(context.Background(), 0)
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, job.Pattern, err)
		}
		if res.MeasuredPackets == 0 {
			t.Fatalf("job %d (%s) measured no packets; the fingerprint would not cover it", i, job.Pattern)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(canon)
		h.Write(out)
	}
	got := hex.EncodeToString(h.Sum(nil)[:16])
	if got != ResultFingerprint {
		t.Fatalf("simulation results changed: fingerprint %s, pinned %s for CodeVersion %q.\n"+
			"Bump CodeVersion and set ResultFingerprint to the new value.",
			got, ResultFingerprint, CodeVersion)
	}
}
