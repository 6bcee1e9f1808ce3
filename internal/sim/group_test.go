package sim

import (
	"reflect"
	"runtime"
	"testing"
)

// beacon drives its output with an incrementing sequence number every
// period cycles, sleeping on a WakeAt timer in between.
type beacon struct {
	clk    *Clock
	h      Handle
	out    *Wire[int]
	period uint64
	next   uint64
	left   int
	seq    int
}

func (b *beacon) Name() string { return "beacon" }
func (b *beacon) Eval() {
	if b.left > 0 && b.clk.Cycle()+1 >= b.next {
		b.seq++
		b.out.Set(b.seq)
		b.left--
		b.next += b.period
		if b.left > 0 {
			b.h.WakeAt(b.next)
		}
	}
}
func (b *beacon) Commit()    {}
func (b *beacon) Idle() bool { return true }

// relay forwards in+1 to out when in changes, after an optional
// routing delay armed through a WakeAt timer.
type relay struct {
	name    string
	clk     *Clock
	h       Handle
	in, out *Wire[int]
	delay   uint64
	last    int
	pend    int
	due     uint64
	hasPend bool
}

func (r *relay) Name() string { return r.name }
func (r *relay) Eval() {
	if v := r.in.Get(); v != r.last {
		r.last = v
		if r.delay == 0 {
			r.out.Set(v + 1)
		} else {
			r.pend = v + 1
			r.due = r.clk.Cycle() + 1 + r.delay
			r.hasPend = true
			r.h.WakeAt(r.due)
		}
	}
	if r.hasPend && r.clk.Cycle()+1 >= r.due {
		r.out.Set(r.pend)
		r.hasPend = false
	}
}
func (r *relay) Commit()    {}
func (r *relay) Idle() bool { return !r.hasPend }

// tap records (cycle, value) every time its input changes.
type tap struct {
	clk  *Clock
	in   *Wire[int]
	last int
	seen [][2]uint64
}

func (t *tap) Name() string { return "tap" }
func (t *tap) Eval() {
	if v := t.in.Get(); v != t.last {
		t.last = v
		t.seen = append(t.seen, [2]uint64{t.clk.Cycle() + 1, uint64(v)})
	}
}
func (t *tap) Commit()    {}
func (t *tap) Idle() bool { return true }

// ringTrace builds a beacon → relay → relay → relay pipeline whose
// last output feeds back to a tap alongside the beacon (a full ring of
// domain dependencies when sharded), runs it, and returns both taps'
// traces. domains=0 builds the reference: every stage in the one
// domain of NewClock, joined by direct wires; otherwise one domain per
// stage with mirror wires across boundaries.
func ringTrace(t *testing.T, domains int, parallel bool, run uint64) ([][2]uint64, [][2]uint64) {
	t.Helper()
	const stages = 3
	var clks [stages + 1]*Clock
	var g *Group
	if domains == 0 {
		c := NewClock()
		for i := range clks {
			clks[i] = c
		}
	} else {
		if domains != stages+1 {
			t.Fatalf("ringTrace wants %d domains, got %d", stages+1, domains)
		}
		g = NewGroup(domains)
		for i := range clks {
			clks[i] = g.Clock(i)
		}
		g.SetParallel(parallel)
	}

	b := &beacon{clk: clks[0], period: 40, next: 25, left: 12}
	b.out = NewWire(clks[0], "b.out", 0)
	clks[0].Register(b)
	b.h = clks[0].Handle(b)
	b.h.WakeAt(b.next)

	prev := b.out
	var lastOut *Wire[int]
	for i := 1; i <= stages; i++ {
		r := &relay{name: "relay", clk: clks[i], delay: uint64(i % 3)}
		if domains == 0 {
			r.in = prev
		} else {
			r.in = MirrorWire(prev, clks[i])
		}
		r.out = NewWire(clks[i], "r.out", 0)
		Watch(r.in, r)
		clks[i].Register(r)
		r.h = clks[i].Handle(r)
		prev = r.out
		lastOut = r.out
	}

	endTap := &tap{clk: clks[stages], in: lastOut}
	Watch(endTap.in, endTap)
	clks[stages].Register(endTap)

	homeTap := &tap{clk: clks[0]}
	if domains == 0 {
		homeTap.in = lastOut
	} else {
		homeTap.in = MirrorWire(lastOut, clks[0])
	}
	Watch(homeTap.in, homeTap)
	clks[0].Register(homeTap)

	clks[0].Run(run)
	return endTap.seen, homeTap.seen
}

// TestGroupLockstepMatchesSingleClock checks mirror-wire timing: a
// four-domain lockstep run must reproduce the one-domain, direct-wire
// reference cycle for cycle. Both run through Group; NewClock is a
// one-domain group.
func TestGroupLockstepMatchesSingleClock(t *testing.T) {
	if g := NewClock().Group(); g == nil || g.Domains() != 1 {
		t.Fatalf("NewClock().Group() = %v, want a one-domain group", g)
	}
	wantEnd, wantHome := ringTrace(t, 0, false, 1000)
	if len(wantEnd) == 0 || len(wantHome) == 0 {
		t.Fatal("reference trace is empty; test is vacuous")
	}
	gotEnd, gotHome := ringTrace(t, 4, false, 1000)
	if !reflect.DeepEqual(wantEnd, gotEnd) {
		t.Errorf("end tap diverged:\nsingle: %v\ngroup:  %v", wantEnd, gotEnd)
	}
	if !reflect.DeepEqual(wantHome, gotHome) {
		t.Errorf("home tap diverged:\nsingle: %v\ngroup:  %v", wantHome, gotHome)
	}
}

func TestGroupParallelMatchesLockstep(t *testing.T) {
	wantEnd, wantHome := ringTrace(t, 4, false, 1000)
	gotEnd, gotHome := ringTrace(t, 4, true, 1000)
	if !reflect.DeepEqual(wantEnd, gotEnd) {
		t.Errorf("end tap diverged:\nlockstep: %v\nparallel: %v", wantEnd, gotEnd)
	}
	if !reflect.DeepEqual(wantHome, gotHome) {
		t.Errorf("home tap diverged:\nlockstep: %v\nparallel: %v", wantHome, gotHome)
	}
}

func TestGroupParallelDeterministicAcrossRunsAndProcs(t *testing.T) {
	ref, refHome := ringTrace(t, 4, true, 1000)
	for _, procs := range []int{1, 2, 8} {
		old := runtime.GOMAXPROCS(procs)
		end, home := ringTrace(t, 4, true, 1000)
		runtime.GOMAXPROCS(old)
		if !reflect.DeepEqual(ref, end) || !reflect.DeepEqual(refHome, home) {
			t.Errorf("GOMAXPROCS=%d diverged from reference", procs)
		}
	}
}

// TestGroupWarpSkipsDeadSpans checks that each domain of a parallel
// group warps its own dead spans: with a 40-cycle beacon period the
// executed step count must be proportional to events, not cycles, and
// executed cycles plus ProbeRange spans must tile the run exactly.
func TestGroupWarpSkipsDeadSpans(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		g := NewGroup(2)
		c0, c1 := g.Clock(0), g.Clock(1)
		g.SetParallel(parallel)

		b := &beacon{clk: c0, period: 40, next: 20, left: 10}
		b.out = NewWire(c0, "b.out", 0)
		c0.Register(b)
		b.h = c0.Handle(b)
		b.h.WakeAt(b.next)

		r := &relay{name: "relay", clk: c1, delay: 2}
		r.in = MirrorWire(b.out, c1)
		r.out = NewWire(c1, "r.out", 0)
		Watch(r.in, r)
		c1.Register(r)
		r.h = c1.Handle(r)

		var executed [2]uint64
		var covered [2]uint64
		for i, c := range []*Clock{c0, c1} {
			i := i
			c.Probe(func(uint64) { executed[i]++; covered[i]++ })
			c.ProbeRange(func(from, to uint64) { covered[i] += to - from + 1 })
		}

		const run = 800
		c0.Run(run)
		for i := range executed {
			if covered[i] != run {
				t.Errorf("parallel=%v: domain %d probes+spans cover %d of %d cycles",
					parallel, i, covered[i], run)
			}
			if executed[i] > run/4 {
				t.Errorf("parallel=%v: domain %d executed %d steps of %d cycles; warp ineffective",
					parallel, i, executed[i], run)
			}
		}
	}
}

// TestGroupStepWarpsToAnyDomainsTimer checks the group-wide dead-span
// rule of Step, which has no cycle budget: with every domain asleep and
// the only armed timer in the last domain, one Step must jump every
// domain straight to that timer's cycle.
func TestGroupStepWarpsToAnyDomainsTimer(t *testing.T) {
	const fire = 500
	g := NewGroup(3)
	c2 := g.Clock(2)
	b := &beacon{clk: c2, period: 1, next: fire, left: 1}
	b.out = NewWire(c2, "b.out", 0)
	c2.Register(b)
	b.h = c2.Handle(b)
	b.h.WakeAt(b.next)
	g.Clock(0).Step() // the beacon evaluates once and retires
	g.Clock(0).Step()
	for i := 0; i < g.Domains(); i++ {
		if got := g.Clock(i).Cycle(); got != fire {
			t.Errorf("domain %d at cycle %d after the warped Step, want %d", i, got, fire)
		}
	}
	if b.seq != 1 {
		t.Errorf("beacon fired %d times, want 1", b.seq)
	}
}

func TestGroupAggregation(t *testing.T) {
	g := NewGroup(3) // domain 2 stays empty
	c0, c1 := g.Clock(0), g.Clock(1)

	b := &beacon{clk: c0, period: 10, next: 5, left: 3}
	b.out = NewWire(c0, "b.out", 0)
	c0.Register(b)
	b.h = c0.Handle(b)
	b.h.WakeAt(b.next)

	r := &relay{name: "relay", clk: c1, delay: 3}
	r.in = MirrorWire(b.out, c1)
	r.out = NewWire(c1, "r.out", 0)
	Watch(r.in, r)
	c1.Register(r)
	r.h = c1.Handle(r)

	// Aggregates must be visible from any domain's clock.
	for _, c := range []*Clock{c0, c1, g.Clock(2)} {
		if got := c.ComponentCount(); got != 2 {
			t.Fatalf("ComponentCount = %d, want 2", got)
		}
	}
	if c1.PendingTimers() != 1 {
		t.Fatalf("PendingTimers = %d, want 1 (beacon armed in domain 0)", c1.PendingTimers())
	}
	if c0.Quiescent() {
		t.Fatal("group reports quiescent with an armed timer")
	}
	if err := c0.RunUntilQuiescent(10_000); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !g.Clock(2).Quiescent() {
		t.Fatal("group not quiescent after drain")
	}
	if r.last == 0 {
		t.Fatal("relay never saw the beacon; mirror path broken")
	}
	if c0.ActiveCount() != 0 {
		t.Fatalf("ActiveCount = %d after quiescence", c0.ActiveCount())
	}
}

func TestHandleMatchesClockCalls(t *testing.T) {
	clk := NewClock()
	p := &pulser{clk: clk}
	clk.Register(p)
	h := clk.Handle(p)
	if !h.Valid() {
		t.Fatal("handle for registered component invalid")
	}
	clk.Step()
	if clk.ActiveCount() != 0 {
		t.Fatal("pulser did not retire")
	}
	h.Wake()
	clk.Step()
	// A woken pulser with no work retires again after one step.
	if clk.ActiveCount() != 0 {
		t.Fatal("handle Wake did not behave like Clock.Wake")
	}
	h.WakeAt(clk.Cycle() + 50)
	if clk.PendingTimers() != 1 {
		t.Fatal("handle WakeAt did not arm a timer")
	}
	clk.Run(60)
	if clk.PendingTimers() != 0 {
		t.Fatal("handle timer never fired")
	}

	var zero Handle
	if zero.Valid() {
		t.Fatal("zero handle claims validity")
	}
	zero.Wake()          // must not panic
	zero.WakeAt(1 << 20) // must not panic
	if got := clk.Handle(nil); got.Valid() {
		t.Fatal("Handle(nil) should be invalid")
	}
}
