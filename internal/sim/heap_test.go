package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// TestHeapPopOrderMatchesSort drives the inline 4-ary heap with a large
// random schedule, including same-instant ties, and checks the execution
// order is exactly (timestamp, scheduling order) — the contract the old
// container/heap implementation provided.
func TestHeapPopOrderMatchesSort(t *testing.T) {
	l := NewLoop()
	rng := rand.New(rand.NewPCG(1, 2))
	type key struct {
		at  Time
		seq int
	}
	var want []key
	var got []key
	for i := 0; i < 5000; i++ {
		at := Time(rng.Int64N(200)) * Time(time.Millisecond) // dense: many ties
		k := key{at: at, seq: i}
		want = append(want, k)
		l.At(at, func() { got = append(got, k) })
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	l.RunUntilIdle(0)
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d executed as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestHeapInterleavedCancel mixes scheduling, cancellation and execution:
// cancelled events must be skipped, everything else must run in order.
func TestHeapInterleavedCancel(t *testing.T) {
	l := NewLoop()
	rng := rand.New(rand.NewPCG(3, 4))
	ran := map[int]bool{}
	timers := map[int]Timer{}
	cancelled := map[int]bool{}
	for i := 0; i < 2000; i++ {
		i := i
		timers[i] = l.Schedule(time.Duration(rng.Int64N(50))*time.Millisecond, func() { ran[i] = true })
		if rng.IntN(3) == 0 {
			victim := rng.IntN(i + 1)
			if timers[victim].Stop() {
				cancelled[victim] = true
			}
		}
	}
	l.RunUntilIdle(0)
	for i := 0; i < 2000; i++ {
		if cancelled[i] && ran[i] {
			t.Fatalf("event %d ran after Stop reported cancellation", i)
		}
		if !cancelled[i] && !ran[i] {
			t.Fatalf("event %d never ran and was never cancelled", i)
		}
	}
}

// TestAtArg checks the allocation-free scheduling form: the argument is
// delivered to the shared callback, ordering is unchanged, and Timers work.
func TestAtArg(t *testing.T) {
	l := NewLoop()
	var got []int
	deliver := func(arg any) { got = append(got, *arg.(*int)) }
	vals := []int{10, 20, 30}
	l.AtArg(Time(2*time.Millisecond), deliver, &vals[1])
	l.ScheduleArg(time.Millisecond, deliver, &vals[0])
	tm := l.AtArg(Time(3*time.Millisecond), deliver, &vals[2])
	stopped := l.AtArg(Time(4*time.Millisecond), deliver, &vals[2])
	if !stopped.Stop() {
		t.Fatal("Stop on pending AtArg timer returned false")
	}
	if tm.Pending() != true {
		t.Fatal("AtArg timer not pending")
	}
	l.RunUntilIdle(0)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("AtArg delivery = %v, want [10 20 30]", got)
	}
}

// TestScheduleSteadyStateAllocs is the zero-allocation contract of the
// event fast path: once the heap and slot table have grown, a
// schedule/cancel/run cycle allocates nothing.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	l := NewLoop()
	noop := func(any) {}
	cycle := func() {
		for i := 0; i < 64; i++ {
			l.AtArg(l.Now().Add(time.Duration(i%7)*time.Microsecond), noop, nil)
		}
		tm := l.ScheduleArg(time.Second, noop, nil)
		tm.Stop()
		l.RunUntilIdle(0)
	}
	cycle() // warm capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("steady-state scheduling allocates %.1f objects per cycle, want 0", allocs)
	}
}

// assertNoStaleRefs fails if any slot that is not a live pending event
// still references a callback or argument: a fired, cancelled, compacted
// or reset event must not keep what it closed over reachable.
func assertNoStaleRefs(t *testing.T, l *Loop, when string) {
	t.Helper()
	live := 0
	for i := range l.slots {
		s := &l.slots[i]
		if s.live() {
			live++
			continue
		}
		if s.arg != nil {
			t.Fatalf("%s: slot %d (heapIdx %d) still holds its argument", when, i, s.heapIdx)
		}
	}
	if live != l.Len() {
		t.Fatalf("%s: %d slots hold callbacks, %d events pending", when, live, l.Len())
	}
}

// TestSlotsReleaseReferences checks every way an event leaves the loop —
// firing, Stop followed by a drain, compaction and Reset — drops its
// callback and argument, so pooled frames and closures are not pinned by
// the slot table.
func TestSlotsReleaseReferences(t *testing.T) {
	l := NewLoop()
	noop := func(any) {}
	frame := func() any { return new([64]byte) }

	l.AtArg(1, noop, frame())
	l.At(2, func() {})
	l.RunUntilIdle(0)
	assertNoStaleRefs(t, l, "fired")

	tm := l.AtArg(5, noop, frame())
	keep := l.AtArg(6, noop, frame())
	tm.Stop()
	assertNoStaleRefs(t, l, "stopped")
	l.RunUntil(5)
	assertNoStaleRefs(t, l, "stopped and drained")
	keep = l.Reschedule(keep, 7, func() {}) // afn+arg replaced by fn
	assertNoStaleRefs(t, l, "rescheduled")
	l.RunUntilIdle(0)

	var timers []Timer
	for i := 0; i < 200; i++ {
		timers = append(timers, l.AtArg(l.Now().Add(time.Duration(i)), noop, frame()))
	}
	before := l.Stats().Compactions
	for _, tm := range timers[:150] {
		tm.Stop()
	}
	if l.Stats().Compactions == before {
		t.Fatal("stopping 150 of 200 events did not compact the heap")
	}
	assertNoStaleRefs(t, l, "compacted")

	l.Reset()
	assertNoStaleRefs(t, l, "reset")
	if keep.Pending() {
		t.Fatal("handle pending after Reset")
	}
}

// TestLoopReset checks that Reset restores a loop to fresh-start state and
// invalidates every outstanding timer handle.
func TestLoopReset(t *testing.T) {
	l := NewLoop()
	fired := false
	stale := l.Schedule(time.Millisecond, func() { fired = true })
	l.RunFor(10 * time.Millisecond)
	leftover := l.Schedule(time.Hour, func() { t.Fatal("leftover event survived Reset") })

	l.Reset()
	if l.Now() != 0 || l.Len() != 0 || l.Processed() != 0 {
		t.Fatalf("Reset left state: now=%v len=%d processed=%d", l.Now(), l.Len(), l.Processed())
	}
	if stale.Pending() || leftover.Pending() {
		t.Fatal("pre-Reset timers still pending")
	}
	if stale.Stop() || leftover.Stop() {
		t.Fatal("pre-Reset timers stoppable after Reset")
	}

	// The reset loop must schedule and run exactly like a fresh one, and
	// stale handles must not be able to cancel new events that reuse their
	// slots.
	count := 0
	for i := 0; i < 100; i++ {
		l.Schedule(time.Duration(i)*time.Microsecond, func() { count++ })
	}
	leftover.Stop()
	stale.Stop()
	l.RunUntilIdle(0)
	if count != 100 {
		t.Fatalf("post-Reset loop ran %d events, want 100 (stale Stop cancelled one?)", count)
	}
	if !fired {
		t.Fatal("pre-Reset event never fired before Reset")
	}
}

// TestRandReseed checks Reseed rewinds a stream to its NewRand state.
func TestRandReseed(t *testing.T) {
	a := NewRand(77, 88)
	var first [8]uint64
	for i := range first {
		first[i] = a.Uint64()
	}
	a.Reseed(77, 88)
	for i := range first {
		if got := a.Uint64(); got != first[i] {
			t.Fatalf("draw %d after Reseed = %d, want %d", i, got, first[i])
		}
	}
}
