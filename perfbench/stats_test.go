package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// ramp returns 1..n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestP90ReportedOnlyWithTenSamplesBeyond(t *testing.T) {
	if v, ok := p90(ramp(100)); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with exactly ten samples beyond", v, ok)
	}
	if _, ok := p90(ramp(99)); ok {
		t.Error("p90 of 99 samples reported with only nine samples beyond it")
	}
	if _, ok := p90(ramp(20)); ok {
		t.Error("p90 of 20 samples reported")
	}
	if _, ok := p90(nil); ok {
		t.Error("p90 of no samples reported")
	}
	// Ties at the top: 100 samples, but the last 15 equal the
	// percentile itself, so none lies beyond it.
	xs := ramp(100)
	for i := 85; i < 100; i++ {
		xs[i] = 86
	}
	if _, ok := p90(xs); ok {
		t.Error("p90 reported although no sample lies strictly beyond it")
	}
}

func ms(n int64) int64 { return n * int64(time.Millisecond) }

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "leaf", ID: 1, Start: ms(0), End: ms(10)},
		// Parent 0..100 with disjoint children 10..20 and 50..70.
		{Name: "parent", ID: 2, Start: ms(0), End: ms(100)},
		{Name: "a", ID: 3, Parent: 2, Start: ms(10), End: ms(20)},
		{Name: "b", ID: 4, Parent: 2, Start: ms(50), End: ms(70)},
		// A grandchild is covered by its parent b, not counted again
		// against the grandparent.
		{Name: "g", ID: 5, Parent: 4, Start: ms(55), End: ms(60)},
		// Concurrent children overlap: 0..40 and 20..60 cover 0..60 once;
		// a child running past the parent's end is clipped at 80.
		{Name: "batch", ID: 6, Start: ms(0), End: ms(80)},
		{Name: "w1", ID: 7, Parent: 6, Start: ms(0), End: ms(40)},
		{Name: "w2", ID: 8, Parent: 6, Start: ms(20), End: ms(60)},
		{Name: "w3", ID: 9, Parent: 6, Start: ms(70), End: ms(95)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 70 * time.Millisecond,
		3: 10 * time.Millisecond,
		4: 15 * time.Millisecond,
		5: 5 * time.Millisecond,
		6: 10 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}

	sum := summarize(spans)
	for _, s := range sum {
		if s.Name == "parent" && (s.Count != 1 || math.Abs(s.SelfFrac-0.7) > 1e-9) {
			t.Errorf("summary of parent = %+v, want one span with self fraction 0.7", s)
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	if id != 0 || tr.named("x") != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("root", 0, 7)
	kid := tr.begin("kid", root, 7)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 7 || len(tr.named("kid")) != 1 {
		t.Errorf("spans = %+v", tr.spans)
	}
}
