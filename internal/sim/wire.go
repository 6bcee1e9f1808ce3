package sim

// Wire is a single-driver registered signal. A component stages a value
// with Set during Eval; the value becomes visible through Get only after
// the cycle's Commit phase, exactly like a D flip-flop between two
// modules. A wire holds its value until the driver stages a new one.
//
// Wires cooperate with the activity scheduler: a wire only needs
// latching on edges following a Set (an undriven wire holds its value by
// definition), and watchers registered through Watch are woken whenever
// an edge changes the latched value — the sensitivity-list mechanism
// that lets a wire's reader sleep. WatchRising narrows that to the
// false→true edges of a bool wire.
type Wire[T any] struct {
	cur, next T
	dirty     bool
	clk       *Clock
	name      string

	// eq and watchers implement Watch and WatchRising; eq is nil until
	// the first watcher registers.
	eq       func(a, b T) bool
	watchers []watcher

	// mirrors forward every latched change into other clock domains
	// (one entry per MirrorWire made from this wire).
	mirrors []func(v T)
}

// watcher is one component woken by a wire's edges. idx caches the
// component's index, resolved lazily (Watch may run before Register),
// so the latch-time wake avoids a map lookup per edge.
type watcher struct {
	comp   Component
	idx    int32
	rising bool // wake only when the value leaves its zero value
}

// NewWire creates a wire in clk's domain, carrying v both as the current
// and staged value.
func NewWire[T any](clk *Clock, name string, v T) *Wire[T] {
	w := &Wire[T]{cur: v, next: v, clk: clk, name: name}
	clk.allWires = append(clk.allWires, w)
	return w
}

// Name reports the wire's diagnostic name.
func (w *Wire[T]) Name() string { return w.name }

// Clock returns the clock domain the wire belongs to, so code handed
// only a wire (a UART given its line) can derive cycle counts and arm
// timers in the right domain.
func (w *Wire[T]) Clock() *Clock { return w.clk }

// Get returns the value latched at the previous clock edge.
func (w *Wire[T]) Get() T { return w.cur }

// Set stages v to become visible after the next clock edge. Only the
// wire's single driver may call Set.
func (w *Wire[T]) Set(v T) {
	w.next = v
	if !w.dirty {
		w.dirty = true
		w.clk.dirty = append(w.clk.dirty, w)
	}
}

// Peek returns the currently staged (pre-edge) value. It exists for
// tests and tracing only; synthesizable component logic must use Get.
func (w *Wire[T]) Peek() T { return w.next }

func (w *Wire[T]) latch() {
	if w.eq != nil && !w.eq(w.cur, w.next) {
		w.wakeWatchers(w.next)
		for _, m := range w.mirrors {
			m(w.next)
		}
	}
	w.cur = w.next
	w.dirty = false
}

// wakeWatchers wakes the watchers of an edge that changed the wire's
// value to v: every Watch watcher, and the WatchRising watchers only
// when v is not the zero value (for a bool wire, a false→true edge).
// It serves both the latch-time wake and mirror apply.
func (w *Wire[T]) wakeWatchers(v T) {
	if len(w.watchers) == 0 {
		return
	}
	var zero T
	rose := !w.eq(v, zero)
	for k := range w.watchers {
		wt := &w.watchers[k]
		if wt.rising && !rose {
			continue
		}
		if wt.idx >= 0 {
			w.clk.wakeIndex(int(wt.idx))
		} else if i, ok := w.clk.index[wt.comp]; ok {
			wt.idx = int32(i)
			w.clk.wakeIndex(i)
		}
	}
}

// applyMirror implements mirrorSink: the source wire latched val one
// boundary cycle ago; publish it in this domain and wake watchers for
// the step about to execute.
func (w *Wire[T]) applyMirror(val any) {
	v := val.(T)
	if !w.eq(w.cur, v) {
		w.cur = v
		w.next = v
		w.wakeWatchers(v)
	}
}

// Watch registers comps to be woken by the wire's clock whenever a
// clock edge changes the wire's latched value. The wake takes effect on
// the cycle in which the watcher first observes the new value through
// Get, so a sleeping watcher sees exactly what it would have seen
// evaluating densely. (A free function rather than a method because
// change detection needs T comparable, which the Wire type itself does
// not require.)
func Watch[T comparable](w *Wire[T], comps ...Component) {
	addWatchers(w, false, comps)
}

// WatchRising is Watch restricted to rising edges: comps are woken only
// when an edge latches w from false to true, in w's own domain and, for
// a MirrorWire made from w, in the mirror's. It suits readers that
// ignore the falling edge — a handshake sender waiting for ack, a
// receiver waiting for tx — and keeps them asleep through it.
func WatchRising(w *Wire[bool], comps ...Component) {
	if w.eq == nil {
		w.eq = eqBool // a plain func: the generic closure allocates per wire
	}
	addWatchers(w, true, comps)
}

func eqBool(a, b bool) bool { return a == b }

func addWatchers[T comparable](w *Wire[T], rising bool, comps []Component) {
	if w.eq == nil {
		w.eq = func(a, b T) bool { return a == b }
	}
	for _, c := range comps {
		w.watchers = append(w.watchers, watcher{comp: c, idx: -1, rising: rising})
	}
}

// MirrorWire couples src into another clock domain of the same Group:
// it returns a read-only wire on dst that tracks src with exactly the
// one-cycle latency an ordinary wire has inside a domain — a value
// staged on src during cycle k latches at the end of k and is observed
// by the mirror's readers (and wakes its watchers) in cycle k+1. That
// boundary latency is the group's conservative lookahead. The mirror
// has no driver; calling Set on it is a protocol violation, as is
// mirroring between clocks of different groups or within one domain.
func MirrorWire[T comparable](src *Wire[T], dst *Clock) *Wire[T] {
	if src.clk.group != dst.group {
		panic("sim: MirrorWire requires both clocks in one Group")
	}
	if src.clk == dst {
		panic("sim: MirrorWire within a single domain (use the wire directly)")
	}
	if src.eq == nil {
		src.eq = func(a, b T) bool { return a == b }
	}
	m := &Wire[T]{cur: src.cur, next: src.cur, clk: dst, name: src.name}
	m.eq = func(a, b T) bool { return a == b }
	q := dst.inQueueFrom(src.clk)
	srcClk := src.clk
	src.mirrors = append(src.mirrors, func(v T) {
		// latch runs before the cycle counter increments, so the edge
		// being latched ends cycle srcClk.cycle+1.
		q.push(srcClk.cycle+1, m, v)
	})
	return m
}
