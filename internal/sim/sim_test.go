package sim

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

// counter increments a register every cycle and drives it onto a wire.
type counter struct {
	n   uint64
	out *Wire[uint64]
}

func (c *counter) Name() string { return "counter" }
func (c *counter) Eval()        { c.out.Set(c.n + 1) }
func (c *counter) Commit()      { c.n++ }

// follower copies its input wire into a register.
type follower struct {
	in   *Wire[uint64]
	seen []uint64
	next uint64
}

func (f *follower) Name() string { return "follower" }
func (f *follower) Eval()        { f.next = f.in.Get() }
func (f *follower) Commit()      { f.seen = append(f.seen, f.next) }

func TestWireRegistersOneCycle(t *testing.T) {
	clk := NewClock()
	w := NewWire(clk, "w", uint64(0))
	c := &counter{out: w}
	f := &follower{in: w}
	clk.Register(c, f)

	clk.Run(4)
	// The follower must see each counter value exactly one cycle late:
	// cycle 1 it reads the initial 0, cycle 2 it reads 1 (staged during
	// cycle 1), etc.
	want := []uint64{0, 1, 2, 3}
	if len(f.seen) != len(want) {
		t.Fatalf("follower saw %d values, want %d", len(f.seen), len(want))
	}
	for i, v := range want {
		if f.seen[i] != v {
			t.Errorf("cycle %d: follower saw %d, want %d", i+1, f.seen[i], v)
		}
	}
}

func TestOrderIndependence(t *testing.T) {
	// Two clock domains with the same components registered in opposite
	// order must produce identical traces.
	run := func(swap bool) []uint64 {
		clk := NewClock()
		w := NewWire(clk, "w", uint64(0))
		c := &counter{out: w}
		f := &follower{in: w}
		if swap {
			clk.Register(f, c)
		} else {
			clk.Register(c, f)
		}
		clk.Run(16)
		return f.seen
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cycle %d: order-dependent result %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunUntil(t *testing.T) {
	clk := NewClock()
	w := NewWire(clk, "w", uint64(0))
	c := &counter{out: w}
	clk.Register(c)

	if err := clk.RunUntil(func() bool { return c.n == 10 }, 100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if clk.Cycle() != 10 {
		t.Errorf("cycle = %d, want 10", clk.Cycle())
	}
	err := clk.RunUntil(func() bool { return false }, 5)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("RunUntil error = %v, want ErrTimeout", err)
	}
	if clk.Cycle() != 15 {
		t.Errorf("cycle after timeout = %d, want 15", clk.Cycle())
	}
}

func TestProbeSeesPostEdgeState(t *testing.T) {
	clk := NewClock()
	w := NewWire(clk, "w", uint64(0))
	c := &counter{out: w}
	clk.Register(c)
	var got []uint64
	clk.Probe(func(cycle uint64) { got = append(got, w.Get()) })
	clk.Run(3)
	want := []uint64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("probe %d saw %d, want %d", i, got[i], want[i])
		}
	}
}

func TestWireHoldsValue(t *testing.T) {
	clk := NewClock()
	w := NewWire(clk, "w", 42)
	clk.Run(5)
	if w.Get() != 42 {
		t.Errorf("undriven wire = %d, want 42", w.Get())
	}
	w.Set(7)
	if w.Get() != 42 {
		t.Errorf("wire visible before edge: %d, want 42", w.Get())
	}
	clk.Step()
	if w.Get() != 7 {
		t.Errorf("wire after edge = %d, want 7", w.Get())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := NewRand(124)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRand(123).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	if err := quick.Check(func(n uint8) bool {
		m := int(n%63) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

// pulser implements Idler: it counts down `work` evals, then idles. It
// records the cycle numbers at which it was evaluated.
type pulser struct {
	clk   *Clock
	work  int
	evals []uint64
}

func (p *pulser) Name() string { return "pulser" }
func (p *pulser) Eval() {
	p.evals = append(p.evals, p.clk.Cycle()+1)
	if p.work > 0 {
		p.work--
	}
}
func (p *pulser) Commit()    {}
func (p *pulser) Idle() bool { return p.work == 0 }

func TestIdlerSleepsAndQuiesces(t *testing.T) {
	clk := NewClock()
	p := &pulser{clk: clk, work: 3}
	clk.Register(p)
	if clk.ActiveCount() != 1 {
		t.Fatalf("fresh component inactive")
	}
	clk.Run(10)
	if got := len(p.evals); got != 3 {
		t.Errorf("pulser evaluated %d times, want 3", got)
	}
	if clk.ActiveCount() != 0 {
		t.Errorf("idle component still active")
	}
	if !clk.Quiescent() {
		t.Error("clock not quiescent with all components asleep")
	}
	if err := clk.RunUntilQuiescent(5); err != nil {
		t.Errorf("RunUntilQuiescent on quiescent clock: %v", err)
	}
	if clk.Cycle() != 10 {
		t.Errorf("RunUntilQuiescent stepped a quiescent clock to %d", clk.Cycle())
	}
}

func TestWakeReactivates(t *testing.T) {
	clk := NewClock()
	p := &pulser{clk: clk, work: 1}
	clk.Register(p)
	clk.Run(5) // evaluates at cycle 1, then sleeps
	p.work = 2
	clk.Wake(p)
	clk.Run(5)
	want := []uint64{1, 6, 7}
	if len(p.evals) != len(want) {
		t.Fatalf("eval cycles %v, want %v", p.evals, want)
	}
	for i := range want {
		if p.evals[i] != want[i] {
			t.Fatalf("eval cycles %v, want %v", p.evals, want)
		}
	}
}

func TestWakeAtTimer(t *testing.T) {
	clk := NewClock()
	p := &pulser{clk: clk, work: 1}
	clk.Register(p)
	clk.Run(3) // evaluates at cycle 1, sleeps from cycle 1 on
	p.work = 1
	clk.WakeAt(10, p)
	if clk.Quiescent() {
		t.Error("armed timer should not be quiescent")
	}
	if err := clk.RunUntilQuiescent(100); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 10}
	if len(p.evals) != 2 || p.evals[0] != want[0] || p.evals[1] != want[1] {
		t.Fatalf("eval cycles %v, want %v", p.evals, want)
	}
}

func TestRunUntilQuiescentTimeout(t *testing.T) {
	clk := NewClock()
	w := NewWire(clk, "w", uint64(0))
	clk.Register(&counter{out: w}) // counter never idles
	err := clk.RunUntilQuiescent(7)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if clk.Cycle() != 7 {
		t.Errorf("cycle = %d, want 7", clk.Cycle())
	}
}

// watcherComp sleeps immediately and logs the wire values it observes
// when woken.
type watcherComp struct {
	in   *Wire[uint64]
	clk  *Clock
	seen map[uint64]uint64 // cycle -> value observed
}

func (w *watcherComp) Name() string { return "watcher" }
func (w *watcherComp) Eval()        { w.seen[w.clk.Cycle()+1] = w.in.Get() }
func (w *watcherComp) Commit()      {}
func (w *watcherComp) Idle() bool   { return true }

// stepDriver drives a wire to a new value at chosen cycles.
type stepDriver struct {
	out    *Wire[uint64]
	clk    *Clock
	values map[uint64]uint64 // set out to v during the eval of this cycle
}

func (d *stepDriver) Name() string { return "driver" }
func (d *stepDriver) Eval() {
	if v, ok := d.values[d.clk.Cycle()+1]; ok {
		d.out.Set(v)
	}
}
func (d *stepDriver) Commit() {}

// TestWatchWakeMatchesDense: a sleeping watcher must observe a changed
// wire on exactly the cycle a dense simulation would have, and must not
// be woken by latches that do not change the value.
func TestWatchWakeMatchesDense(t *testing.T) {
	run := func(sparse bool) map[uint64]uint64 {
		clk := NewClock()
		clk.SetActivityScheduling(sparse)
		w := NewWire(clk, "w", uint64(0))
		d := &stepDriver{out: w, clk: clk, values: map[uint64]uint64{3: 7, 5: 7, 9: 8}}
		wc := &watcherComp{in: w, clk: clk, seen: make(map[uint64]uint64)}
		Watch(w, wc)
		clk.Register(d, wc)
		clk.Run(15)
		return wc.seen
	}
	dense := run(false)
	sparse := run(true)
	// Dense observes every cycle; keep only the cycles sparse ran and
	// require the observed values to agree there.
	for cyc, v := range sparse {
		if dense[cyc] != v {
			t.Errorf("cycle %d: sparse saw %d, dense saw %d", cyc, v, dense[cyc])
		}
	}
	// The change staged at cycle 3 latches at the end of 3, so the
	// watcher must run (and see 7) at cycle 4; same for 9 -> 10. The
	// re-stage of the same value at cycle 5 must not wake it.
	if v, ok := sparse[4]; !ok || v != 7 {
		t.Errorf("watcher at cycle 4: %v %v, want 7", v, ok)
	}
	if v, ok := sparse[10]; !ok || v != 8 {
		t.Errorf("watcher at cycle 10: %v %v, want 8", v, ok)
	}
	if _, ok := sparse[6]; ok {
		t.Error("watcher woken by a latch that did not change the value")
	}
}

// TestTimeWarpJumpsToTimer: with the domain dead and a timer armed,
// one Step must land exactly on the timer's cycle, evaluating the
// component on the same cycle a per-cycle run would.
func TestTimeWarpJumpsToTimer(t *testing.T) {
	clk := NewClock()
	p := &pulser{clk: clk, work: 1}
	clk.Register(p)
	clk.Step() // evaluates at cycle 1, then sleeps
	p.work = 1
	clk.WakeAt(1000, p)
	clk.Step() // dead domain: must warp straight to the timer
	if clk.Cycle() != 1000 {
		t.Fatalf("cycle after warped step = %d, want 1000", clk.Cycle())
	}
	want := []uint64{1, 1000}
	if len(p.evals) != 2 || p.evals[0] != want[0] || p.evals[1] != want[1] {
		t.Fatalf("eval cycles %v, want %v", p.evals, want)
	}
}

// TestTimeWarpOffStepsEveryCycle: SetTimeWarp(false) restores the
// one-cycle-per-Step reference behaviour on a dead domain.
func TestTimeWarpOffStepsEveryCycle(t *testing.T) {
	clk := NewClock()
	clk.SetTimeWarp(false)
	p := &pulser{clk: clk, work: 1}
	clk.Register(p)
	clk.Step()
	p.work = 1
	clk.WakeAt(10, p)
	for i := 0; i < 5; i++ {
		clk.Step()
	}
	if clk.Cycle() != 6 {
		t.Fatalf("cycle = %d, want 6 (no warping)", clk.Cycle())
	}
	clk.Run(10)
	if clk.Cycle() != 16 {
		t.Fatalf("cycle = %d, want 16", clk.Cycle())
	}
	if len(p.evals) != 2 || p.evals[1] != 10 {
		t.Fatalf("eval cycles %v, want [1 10]", p.evals)
	}
}

// TestProbeRangeTilesSkippedSpans: per-cycle probes and range probes
// must together cover every simulated cycle exactly once, so a
// per-cycle accumulator integrating ranges stays bit-identical to
// dense evaluation.
func TestProbeRangeTilesSkippedSpans(t *testing.T) {
	clk := NewClock()
	p := &pulser{clk: clk, work: 2}
	clk.Register(p)
	covered := make(map[uint64]int)
	clk.Probe(func(cycle uint64) { covered[cycle]++ })
	clk.ProbeRange(func(from, to uint64) {
		if from > to {
			t.Fatalf("empty range [%d, %d]", from, to)
		}
		for c := from; c <= to; c++ {
			covered[c]++
		}
	})
	clk.WakeAt(40, p) // fires mid-run
	clk.Run(100)      // sleeps after cycle 2, warps 3..39 and 41..100
	if clk.Cycle() != 100 {
		t.Fatalf("cycle = %d, want 100", clk.Cycle())
	}
	for c := uint64(1); c <= 100; c++ {
		if covered[c] != 1 {
			t.Fatalf("cycle %d covered %d times, want exactly once", c, covered[c])
		}
	}
}

// TestRunWarpNeverOvershoots: Run's cycle budget must cap a warp even
// when the earliest timer lies beyond it.
func TestRunWarpNeverOvershoots(t *testing.T) {
	clk := NewClock()
	p := &pulser{clk: clk, work: 1}
	clk.Register(p)
	clk.Step()
	p.work = 1
	clk.WakeAt(1000, p)
	clk.Run(50)
	if clk.Cycle() != 51 {
		t.Fatalf("cycle = %d, want 51 (budget-capped)", clk.Cycle())
	}
	if len(p.evals) != 1 {
		t.Fatalf("timer fired early: evals %v", p.evals)
	}
	clk.Run(2000)
	if clk.Cycle() != 2051 {
		t.Fatalf("cycle = %d, want 2051", clk.Cycle())
	}
	if len(p.evals) != 2 || p.evals[1] != 1000 {
		t.Fatalf("eval cycles %v, want second at 1000", p.evals)
	}
}

// TestWakeAtCoalescesDuplicates: re-arming the same (component, cycle)
// deadline must not grow the timer heap — the leak a periodic
// component re-arming every Eval would otherwise cause.
func TestWakeAtCoalescesDuplicates(t *testing.T) {
	clk := NewClock()
	p := &pulser{clk: clk, work: 1}
	clk.Register(p)
	clk.Step()
	for i := 0; i < 100; i++ {
		clk.WakeAt(50, p)
	}
	if got := clk.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers = %d after 100 duplicate arms, want 1", got)
	}
	p.work = 1
	if err := clk.RunUntilQuiescent(100); err != nil {
		t.Fatal(err)
	}
	if len(p.evals) != 2 || p.evals[1] != 50 {
		t.Fatalf("eval cycles %v, want second at 50", p.evals)
	}
	// After the timer fired, the same deadline cycle must be armable
	// again (for a new simulation phase at a later cycle).
	clk.WakeAt(200, p)
	clk.WakeAt(200, p)
	if got := clk.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers = %d after re-arm, want 1", got)
	}
}

// TestWakeAtDistinctCyclesAllFire: distinct deadlines for one component
// are not coalesced away.
func TestWakeAtDistinctCyclesAllFire(t *testing.T) {
	clk := NewClock()
	p := &pulser{clk: clk, work: 1}
	clk.Register(p)
	clk.Step()
	clk.WakeAt(10, p)
	clk.WakeAt(30, p)
	clk.WakeAt(20, p)
	if got := clk.PendingTimers(); got != 3 {
		t.Fatalf("PendingTimers = %d, want 3", got)
	}
	if err := clk.RunUntilQuiescent(100); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 10, 20, 30}
	if len(p.evals) != len(want) {
		t.Fatalf("eval cycles %v, want %v", p.evals, want)
	}
	for i := range want {
		if p.evals[i] != want[i] {
			t.Fatalf("eval cycles %v, want %v", p.evals, want)
		}
	}
}

// TestWatchMultipleWatchers: every watcher of a wire must be woken by a
// value-changing edge, each observing the new value on the same cycle.
func TestWatchMultipleWatchers(t *testing.T) {
	clk := NewClock()
	w := NewWire(clk, "w", uint64(0))
	d := &stepDriver{out: w, clk: clk, values: map[uint64]uint64{5: 9}}
	a := &watcherComp{in: w, clk: clk, seen: make(map[uint64]uint64)}
	b := &watcherComp{in: w, clk: clk, seen: make(map[uint64]uint64)}
	Watch(w, a, b)
	clk.Register(d, a, b)
	clk.Run(10)
	for name, wc := range map[string]*watcherComp{"a": a, "b": b} {
		if v, ok := wc.seen[6]; !ok || v != 9 {
			t.Errorf("watcher %s at cycle 6: %v %v, want 9", name, v, ok)
		}
	}
}

// TestWatchAfterStagedSet: a watcher registered between a staged Set
// and the edge that latches it must still be woken by that edge.
func TestWatchAfterStagedSet(t *testing.T) {
	clk := NewClock()
	w := NewWire(clk, "w", uint64(0))
	wc := &watcherComp{in: w, clk: clk, seen: make(map[uint64]uint64)}
	clk.Register(wc)
	clk.Run(3) // watcher asleep from cycle 1 on
	w.Set(7)   // staged outside Eval, awaiting the next edge
	Watch(w, wc)
	clk.Run(3)
	if v, ok := wc.seen[5]; !ok || v != 7 {
		t.Fatalf("watcher after late registration: seen %v, want 7 at cycle 5", wc.seen)
	}
}

// TestWatchDenseMode: with activity scheduling off the watcher
// machinery must be inert but harmless — the watcher (evaluated every
// cycle anyway) observes exactly what the sparse run's wakes showed it.
func TestWatchDenseMode(t *testing.T) {
	run := func(sparse bool) map[uint64]uint64 {
		clk := NewClock()
		clk.SetActivityScheduling(sparse)
		w := NewWire(clk, "w", uint64(0))
		d := &stepDriver{out: w, clk: clk, values: map[uint64]uint64{4: 3, 8: 11}}
		wc := &watcherComp{in: w, clk: clk, seen: make(map[uint64]uint64)}
		Watch(w, wc)
		clk.Register(d, wc)
		clk.Run(12)
		return wc.seen
	}
	dense, sparse := run(false), run(true)
	for cyc, v := range sparse {
		if dense[cyc] != v {
			t.Errorf("cycle %d: sparse saw %d, dense saw %d", cyc, v, dense[cyc])
		}
	}
	if v := dense[5]; v != 3 {
		t.Errorf("dense watcher at cycle 5 = %d, want 3", v)
	}
	if v := dense[9]; v != 11 {
		t.Errorf("dense watcher at cycle 9 = %d, want 11", v)
	}
}

// TestDenseKernelEquivalence runs the counter/follower pair under both
// kernels and requires identical traces.
func TestDenseKernelEquivalence(t *testing.T) {
	run := func(sparse bool) []uint64 {
		clk := NewClock()
		clk.SetActivityScheduling(sparse)
		w := NewWire(clk, "w", uint64(0))
		c := &counter{out: w}
		f := &follower{in: w}
		clk.Register(c, f)
		clk.Run(20)
		return f.seen
	}
	a, b := run(true), run(false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cycle %d: sparse %d, dense %d", i, a[i], b[i])
		}
	}
}

// edgeWatcher sleeps immediately and records the cycles it evaluates.
type edgeWatcher struct {
	clk   *Clock
	evals []uint64
}

func (w *edgeWatcher) Name() string { return "edgeWatcher" }
func (w *edgeWatcher) Eval()        { w.evals = append(w.evals, w.clk.Cycle()+1) }
func (w *edgeWatcher) Commit()      {}
func (w *edgeWatcher) Idle() bool   { return true }

// boolDriver drives a bool wire to a chosen value at chosen cycles.
type boolDriver struct {
	out    *Wire[bool]
	clk    *Clock
	values map[uint64]bool // set out to v during the eval of this cycle
}

func (d *boolDriver) Name() string { return "boolDriver" }
func (d *boolDriver) Eval() {
	if v, ok := d.values[d.clk.Cycle()+1]; ok {
		d.out.Set(v)
	}
}
func (d *boolDriver) Commit() {}

// TestWatchRising: a WatchRising watcher is woken for the cycle after a
// false→true edge only — not by a falling edge, nor by a re-Set to the
// value the wire already holds — while a Watch watcher of the same wire
// still wakes on both edges. A MirrorWire of the wire wakes its rising
// watchers in the destination domain on the same cycles, under lockstep
// and parallel Group runs alike.
func TestWatchRising(t *testing.T) {
	// Rise staged at 3, re-Set true at 5, fall at 7, rise at 9. Both
	// watchers also evaluate on cycle 1, as every fresh component does.
	values := map[uint64]bool{3: true, 5: true, 7: false, 9: true}
	wantRising := []uint64{1, 4, 10}
	wantAny := []uint64{1, 4, 8, 10}
	check := func(name string, rising, onAny *edgeWatcher) {
		t.Helper()
		if !reflect.DeepEqual(rising.evals, wantRising) {
			t.Errorf("%s: rising watcher evaluated at %v, want %v", name, rising.evals, wantRising)
		}
		if !reflect.DeepEqual(onAny.evals, wantAny) {
			t.Errorf("%s: Watch watcher evaluated at %v, want %v", name, onAny.evals, wantAny)
		}
	}

	clk := NewClock()
	w := NewWire(clk, "w", false)
	rising, onAny := &edgeWatcher{clk: clk}, &edgeWatcher{clk: clk}
	WatchRising(w, rising)
	Watch(w, onAny)
	clk.Register(&boolDriver{out: w, clk: clk, values: values}, rising, onAny)
	clk.Run(14)
	check("single clock", rising, onAny)

	for _, parallel := range []bool{false, true} {
		g := NewGroup(2)
		g.SetParallel(parallel)
		src := NewWire(g.Clock(0), "w", false)
		g.Clock(0).Register(&boolDriver{out: src, clk: g.Clock(0), values: values})
		m := MirrorWire(src, g.Clock(1))
		rising, onAny := &edgeWatcher{clk: g.Clock(1)}, &edgeWatcher{clk: g.Clock(1)}
		WatchRising(m, rising)
		Watch(m, onAny)
		g.Clock(1).Register(rising, onAny)
		g.Clock(0).Run(14)
		name := "mirror, lockstep"
		if parallel {
			name = "mirror, parallel"
		}
		check(name, rising, onAny)
	}
}
