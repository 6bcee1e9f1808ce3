package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

// A sweep-batch round: a fresh service on an empty journal computes
// sweepFreshBatches batches, the client resubmits them
// sweepCachedSubmits times in turn (the dedupe cache answers), then the
// service drains and restarts on the same journal, and one more
// resubmission of every batch must come entirely from the replayed
// cache. Every round does the same amount of work, so its journal, and
// the replay that reads it, has the same size whatever the host speed.
const (
	sweepBatchJobs     = 16
	sweepFreshBatches  = 2
	sweepCachedSubmits = 60
	// sweepMinRounds lets a traced run, which alternates traced and
	// untraced rounds, trace 120 cached submits: enough for a p90 with
	// at least ten samples beyond it.
	sweepMinRounds = 3
	sweepMeshSize  = 8
)

// sweepSlots fixes each batch position's pattern and rate, so every
// batch carries the same mix of work; the seeds, hotspot and multicast
// group come from the workload seed.
var sweepSlots = [sweepBatchJobs]struct {
	pattern string
	rate    float64
}{
	{"uniform", 0.02}, {"uniform", 0.1}, {"uniform", 0.2}, {"uniform", 0.3},
	{"transpose", 0.05}, {"transpose", 0.15},
	{"bitcomp", 0.05}, {"bitcomp", 0.15},
	{"bitrev", 0.05}, {"bitrev", 0.15},
	{"hotspot", 0.05}, {"hotspot", 0.1},
	{"bursty", 0.05}, {"bursty", 0.1},
	{"multicast", 0.01}, {"multicast", 0.02},
}

// sweepBatch draws one batch of jobs from rng.
func sweepBatch(rng *rand.Rand) []sweep.JobSpec {
	specs := make([]sweep.JobSpec, len(sweepSlots))
	for i, s := range sweepSlots {
		j := experiments.TrafficJob{
			Width: sweepMeshSize, Height: sweepMeshSize,
			Pattern: s.pattern, Rate: s.rate, Seed: rng.Uint64(),
		}
		switch s.pattern {
		case "hotspot":
			j.Hotspots = []traffic.HotspotSpec{{
				X: rng.IntN(sweepMeshSize), Y: rng.IntN(sweepMeshSize), Weight: 0.2 + 0.3*rng.Float64(),
			}}
		case "multicast":
			for _, n := range rng.Perm(sweepMeshSize * sweepMeshSize)[:4] {
				j.Multicast = append(j.Multicast, noc.Addr{X: n % sweepMeshSize, Y: n / sweepMeshSize})
			}
		}
		specs[i] = sweep.JobSpec{TrafficJob: j}
	}
	return specs
}

// nominalCycles is the simulated time a job is asked for: its warmup
// and measurement phases. The drain, which stops at quiescence, is not
// visible through TrafficJob.Run.
func nominalCycles(spec sweep.JobSpec) uint64 {
	c := spec.TrafficJob.Canonical()
	return uint64(c.Warmup + c.Measure)
}

// sweepServer is one service instance behind a loopback HTTP listener.
type sweepServer struct {
	svc  *sweep.Service
	srv  *http.Server
	done chan struct{}
	base string
}

func startSweep(journal string, runner func(context.Context, sweep.JobSpec) (traffic.Result, error)) (*sweepServer, error) {
	svc, err := sweep.NewService(sweep.Config{
		Workers: runtime.NumCPU(), JournalPath: journal, Runner: runner,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain(context.Background())
		return nil, err
	}
	s := &sweepServer{svc: svc, srv: &http.Server{Handler: svc.Handler()}, done: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// stop shuts the listener down and drains the service, waiting for
// both.
func (s *sweepServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	herr := s.srv.Shutdown(ctx)
	<-s.done
	return errors.Join(herr, s.svc.Drain(ctx))
}

// sweepClient is the single closed-loop client: one request at a time
// over one keep-alive connection.
type sweepClient struct {
	hc *http.Client
}

// submit posts a batch and returns the accepted snapshot, the response
// size, and the time until the whole response was read.
func (c sweepClient) submit(base string, specs []sweep.JobSpec) (sweep.BatchSnapshot, int, time.Duration, error) {
	var snap sweep.BatchSnapshot
	body, err := json.Marshal(sweep.SubmitRequest{Jobs: specs})
	if err != nil {
		return snap, 0, 0, err
	}
	t := time.Now()
	resp, err := c.hc.Post(base+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		return snap, 0, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t)
	if err != nil {
		return snap, 0, 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return snap, 0, 0, fmt.Errorf("submit: %s: %s", resp.Status, b)
	}
	return snap, len(b), lat, json.Unmarshal(b, &snap)
}

// wait long-polls a batch until it is done.
func (c sweepClient) wait(base, id string) (sweep.BatchSnapshot, error) {
	for {
		var snap sweep.BatchSnapshot
		resp, err := c.hc.Get(base + "/v1/batches/" + id + "?wait=1")
		if err != nil {
			return snap, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return snap, err
		}
		if resp.StatusCode != http.StatusOK {
			return snap, fmt.Errorf("wait %s: %s: %s", id, resp.Status, b)
		}
		if err := json.Unmarshal(b, &snap); err != nil || snap.Done {
			return snap, err
		}
	}
}

// sweepRound is one measured round.
type sweepRound struct {
	wallS, allocMB      float64
	startS, replayS     float64
	freshS              float64 // submit to done, summed over fresh batches
	freshJobs           int
	runS                []float64 // every TrafficJob.Run call
	nominal             uint64
	retries, failedJobs int
	cachedMS            []float64
	cachedRespBytes     int
	cacheHits           int
	journalGrowth       int64 // during the cached submits
	journalBytes        int64 // at the restart
	digest              string
	// Per fresh batch: jobs per second from submit to done, and
	// nominal simulated cycles per second of TrafficJob.Run.
	batchJobRate, batchSimRate []float64
}

// runnerLog collects TrafficJob.Run calls from the worker goroutines.
type runnerLog struct {
	mu     sync.Mutex
	runS   []float64
	parent atomic.Int64 // span of the batch being computed
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// sweepRoundRun runs one round. An error means the service could not
// be run at all; failed checks are counted in r.
func sweepRoundRun(r *report, p params, rng *rand.Rand, tr *tracer, op int, c sweepClient) (sweepRound, error) {
	var rd sweepRound
	if err := os.MkdirAll(p.workdir, 0o755); err != nil {
		return rd, err
	}
	dir, err := os.MkdirTemp(p.workdir, "sweep-")
	if err != nil {
		return rd, err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "journal")
	root := tr.begin("round", 0, op)
	defer tr.end(root)

	var rl runnerLog
	runner := func(ctx context.Context, spec sweep.JobSpec) (traffic.Result, error) {
		id := tr.begin("TrafficJob.Run", int(rl.parent.Load()), op)
		t := time.Now()
		res, err := spec.TrafficJob.Run(ctx, spec.MaxCycles)
		d := time.Since(t).Seconds()
		tr.end(id)
		rl.mu.Lock()
		rl.runS = append(rl.runS, d)
		rl.mu.Unlock()
		return res, err
	}

	a0 := allocMB()
	t0 := time.Now()
	id := tr.begin("sweep.NewService", root, op)
	srv, err := startSweep(journal, runner)
	tr.end(id)
	rd.startS = time.Since(t0).Seconds()
	if err != nil {
		return rd, err
	}

	// Fresh batches: every job computed.
	batches := make([][]sweep.JobSpec, sweepFreshBatches)
	want := make(map[string]traffic.Result)
	for b := range batches {
		batches[b] = sweepBatch(rng)
		var nominal uint64
		for _, s := range batches[b] {
			nominal += nominalCycles(s)
		}
		rd.nominal += nominal
		rl.mu.Lock()
		mark := len(rl.runS)
		rl.mu.Unlock()
		id := tr.begin("batch.fresh", root, op)
		rl.parent.Store(int64(id))
		t := time.Now()
		snap, _, _, err := c.submit(srv.base, batches[b])
		if err == nil {
			snap, err = c.wait(srv.base, snap.ID)
		}
		wall := time.Since(t).Seconds()
		rd.freshS += wall
		rd.batchJobRate = append(rd.batchJobRate, float64(len(batches[b]))/wall)
		tr.end(id)
		if err == nil {
			err = checkBatch(snap, sweepBatchJobs, nil, false)
		}
		for _, j := range snap.Jobs {
			rd.retries += max(j.Attempts-1, 0)
			if j.Status != sweep.StatusDone {
				rd.failedJobs++
			} else if j.Result != nil {
				want[j.Key] = *j.Result
			}
		}
		rd.freshJobs += len(batches[b])
		// The client waits for each batch, so every Run call since the
		// mark belongs to this one.
		rl.mu.Lock()
		rd.batchSimRate = append(rd.batchSimRate, float64(nominal)/sum(rl.runS[mark:]))
		rl.mu.Unlock()
		r.check(fmt.Sprintf("round %d fresh batch %d", op, b), err)
	}

	h := sha256.New()
	for _, specs := range batches {
		for _, s := range specs {
			fmt.Fprintf(h, "%+v\n", want[s.Key()])
		}
	}
	rd.digest = hex.EncodeToString(h.Sum(nil)[:8])

	// Cached resubmits: the dedupe cache answers, but each accepted
	// batch is still journaled.
	j0 := fileSize(journal)
	hits0 := srv.svc.Stats().CacheHits
	for i := 0; i < sweepCachedSubmits; i++ {
		specs := batches[i%len(batches)]
		id := tr.begin("batch.cached", root, op)
		snap, n, lat, err := c.submit(srv.base, specs)
		tr.end(id)
		if err == nil {
			err = checkBatch(snap, len(specs), want, true)
		}
		if r.check(fmt.Sprintf("round %d cached submit %d", op, i), err) {
			rd.cachedMS = append(rd.cachedMS, lat.Seconds()*1e3)
			rd.cachedRespBytes += n
		}
	}
	rd.journalGrowth = fileSize(journal) - j0
	rd.cacheHits = srv.svc.Stats().CacheHits - hits0

	id = tr.begin("sweep.Drain", root, op)
	err = srv.stop()
	tr.end(id)
	c.hc.CloseIdleConnections()
	if err != nil {
		return rd, fmt.Errorf("drain: %w", err)
	}

	// Restart on the same journal: everything must come from the
	// replayed cache.
	rd.journalBytes = fileSize(journal)
	t := time.Now()
	id = tr.begin("sweep.NewService.replay", root, op)
	srv, err = startSweep(journal, runner)
	tr.end(id)
	rd.replayS = time.Since(t).Seconds()
	if err != nil {
		return rd, fmt.Errorf("restart: %w", err)
	}
	for b, specs := range batches {
		snap, _, _, err := c.submit(srv.base, specs)
		if err == nil {
			err = checkBatch(snap, len(specs), want, true)
		}
		r.check(fmt.Sprintf("round %d replayed batch %d", op, b), err)
	}
	r.check(fmt.Sprintf("round %d restart", op), checkNotRecomputed(srv.svc.Stats()))
	err = srv.stop()
	c.hc.CloseIdleConnections()
	if err != nil {
		return rd, fmt.Errorf("drain after restart: %w", err)
	}
	rd.runS = rl.runS
	rd.wallS = time.Since(t0).Seconds()
	rd.allocMB = allocMB() - a0
	return rd, nil
}

func runSweepBatch(p params) (*report, error) {
	r := newReport()
	rng := rand.New(rand.NewPCG(p.seed, 0x7377656570))
	if p.traced {
		r.tr = newTracer()
		r.notExercised("sim.", "noc.", "traffic.", "core.", "edge.", "host.", "r8.")
	}
	c := sweepClient{hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	var all, traced []sweepRound
	var untracedWall []float64
	deadline := p.deadline(time.Now())
	for op := 0; op < sweepMinRounds || time.Now().Before(deadline); op++ {
		tr := p.opTracer(r.tr, op)
		rd, err := sweepRoundRun(r, p, rng, tr, op, c)
		if err != nil {
			return nil, err
		}
		if op == 0 {
			r.stats = append(r.stats, sweepStats(rd))
		}
		all = append(all, rd)
		if tr != nil {
			traced = append(traced, rd)
		} else {
			untracedWall = append(untracedWall, rd.wallS)
		}
	}

	var simRate, jobRate, cached, setup, alloc []float64
	for _, rd := range all {
		simRate = append(simRate, rd.batchSimRate...)
		jobRate = append(jobRate, rd.batchJobRate...)
		cached = append(cached, rd.cachedMS...)
		setup = append(setup, rd.startS+rd.replayS)
		alloc = append(alloc, rd.allocMB)
	}
	r.e2e["simcycles_per_s"] = fastRate(simRate)
	r.e2e["jobs_per_s"] = fastRate(jobRate)
	r.e2e["request_ms"] = fastTime(cached)
	r.e2e["setup_s"] = median(setup)
	r.e2e["alloc_mb"] = sum(alloc) / float64(len(all))

	if p.traced && len(traced) > 0 {
		r.sweepLayers(traced, untracedWall)
	}
	return r, nil
}

// sweepLayers derives the per-layer metrics of a traced sweep-batch
// run from its traced rounds.
func (r *report) sweepLayers(traced []sweepRound, untracedWall []float64) {
	var runS, cached, tracedWall []float64
	var freshS float64
	var jobs, retries, failed, hits, respBytes int
	var growth int64
	for _, rd := range traced {
		runS = append(runS, rd.runS...)
		cached = append(cached, rd.cachedMS...)
		tracedWall = append(tracedWall, rd.wallS)
		freshS += rd.freshS
		jobs += rd.freshJobs
		retries += rd.retries
		failed += rd.failedJobs
		hits += rd.cacheHits
		respBytes += rd.cachedRespBytes
		growth += rd.journalGrowth
	}
	// The fresh batches' self time is the part of each batch during
	// which no job was running: HTTP, queueing, journal appends, and
	// the tail where one worker waits for the other.
	var batchSelf float64
	self := selfTimes(r.tr.spans)
	for _, s := range r.tr.spans {
		if s.Name == "batch.fresh" {
			batchSelf += self[s.ID].Seconds()
		}
	}
	submits := float64(sweepCachedSubmits * len(traced))
	l := r.layer
	l["sweep.start_s"] = median(r.tr.named("sweep.NewService"))
	l["sweep.replay_s"] = median(r.tr.named("sweep.NewService.replay"))
	l["sweep.journal_bytes"] = float64(traced[0].journalBytes)
	l["sweep.job_run_s"] = median(runS)
	l["sweep.worker_busy_frac"] = ratio(sum(runS), freshS*float64(runtime.NumCPU()))
	l["sweep.overhead_ms_per_job"] = ratio(batchSelf*1e3, float64(jobs))
	l["sweep.retries"] = float64(retries)
	l["sweep.failed_jobs"] = float64(failed)
	l["sweep.cache_hit_frac"] = ratio(float64(hits), submits*sweepBatchJobs)
	l["sweep.journal_bytes_per_cached_submit"] = ratio(float64(growth), submits)
	l["sweep.response_kb"] = ratio(float64(respBytes)/1e3, float64(len(cached)))
	l["sweep.cached_submit_p50_ms"] = median(cached)
	if v, ok := p90(cached); ok {
		l["sweep.cached_submit_p90_ms"] = v
	}
	l["trace.overhead_frac"] = overhead(tracedWall, untracedWall)
	l["trace.spans"] = float64(len(r.tr.spans))
}

// sweepStats formats the exact outcome of a round: its jobs' simulated
// results, digested. (The journal's size is not exact: it holds random
// batch IDs, whose CRCs vary in printed length.)
func sweepStats(rd sweepRound) string {
	return fmt.Sprintf("fresh_jobs=%d nominal_cycles=%d results_sha256=%s retries=%d failed=%d",
		rd.freshJobs, rd.nominal, rd.digest, rd.retries, rd.failedJobs)
}
