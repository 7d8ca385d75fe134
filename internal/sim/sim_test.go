package sim

import (
	"testing"
	"time"
)

func TestLoopStartsAtZero(t *testing.T) {
	l := NewLoop()
	if l.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", l.Now())
	}
	if l.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", l.Len())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	l := NewLoop()
	var fired Time
	l.Schedule(5*time.Millisecond, func() { fired = l.Now() })
	if !l.Step() {
		t.Fatal("Step() = false, want true")
	}
	if fired != Time(5*time.Millisecond) {
		t.Fatalf("fired at %v, want 5ms", fired)
	}
	if l.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", l.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	l := NewLoop()
	var order []int
	l.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	l.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	l.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	l.RunUntilIdle(0)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	l := NewLoop()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		l.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	l.RunUntilIdle(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO 0..9", order)
		}
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	l := NewLoop()
	l.RunUntil(Time(time.Second))
	fired := false
	l.Schedule(-time.Hour, func() { fired = true })
	l.Step()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if l.Now() != Time(time.Second) {
		t.Fatalf("Now() = %v, clock must not go backwards", l.Now())
	}
}

func TestTimerStop(t *testing.T) {
	l := NewLoop()
	fired := false
	tm := l.Schedule(time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("Pending() = false before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	l.RunUntilIdle(0)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Pending() {
		t.Fatal("Pending() = true after Stop")
	}
}

func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop() = true")
	}
	if tm.Pending() {
		t.Fatal("zero Timer Pending() = true")
	}
}

func TestRunUntilAdvancesToHorizon(t *testing.T) {
	l := NewLoop()
	l.Schedule(10*time.Millisecond, func() {})
	l.RunUntil(Time(5 * time.Millisecond))
	if l.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", l.Now())
	}
	if l.Len() != 1 {
		t.Fatalf("event beyond horizon was consumed")
	}
	l.RunFor(10 * time.Millisecond)
	if l.Now() != Time(15*time.Millisecond) {
		t.Fatalf("Now() = %v, want 15ms", l.Now())
	}
	if _, ok := l.peek(); ok {
		t.Fatal("event within horizon not consumed")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	l := NewLoop()
	var times []Time
	l.Schedule(time.Millisecond, func() {
		times = append(times, l.Now())
		l.Schedule(time.Millisecond, func() { times = append(times, l.Now()) })
	})
	l.RunUntil(Time(3 * time.Millisecond))
	if len(times) != 2 {
		t.Fatalf("got %d events, want 2 (chained event within horizon)", len(times))
	}
	if times[1] != Time(2*time.Millisecond) {
		t.Fatalf("chained event at %v, want 2ms", times[1])
	}
}

func TestRunUntilIdleGuard(t *testing.T) {
	l := NewLoop()
	var rearm func()
	rearm = func() { l.Schedule(time.Nanosecond, rearm) }
	l.Schedule(0, rearm)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntilIdle did not panic on runaway loop")
		}
	}()
	l.RunUntilIdle(1000)
}

func TestProcessedCounter(t *testing.T) {
	l := NewLoop()
	for i := 0; i < 7; i++ {
		l.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	tm := l.Schedule(time.Second, func() {})
	tm.Stop()
	l.RunUntilIdle(0)
	if l.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7 (cancelled events don't count)", l.Processed())
	}
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(time.Second)
	if got := base.Add(time.Millisecond); got != Time(time.Second+time.Millisecond) {
		t.Fatalf("Add: got %v", got)
	}
	if got := base.Sub(Time(time.Millisecond)); got != time.Second-time.Millisecond {
		t.Fatalf("Sub: got %v", got)
	}
	if base.String() != "1s" {
		t.Fatalf("String() = %q, want 1s", base.String())
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(1, 2)
	b := NewRand(1, 2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded Rands diverged")
		}
	}
}

func TestRandForkIndependence(t *testing.T) {
	parent := NewRand(1, 2)
	c1 := parent.Fork(1)
	// Same construction again must yield the same child stream.
	parent2 := NewRand(1, 2)
	c1b := parent2.Fork(1)
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c1b.Uint64() {
			t.Fatal("forked stream not deterministic")
		}
	}
}

func TestRandBoolEdges(t *testing.T) {
	r := NewRand(3, 4)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	// p=0.5 should be roughly balanced over many draws.
	n := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.5) {
			n++
		}
	}
	if n < 4500 || n > 5500 {
		t.Fatalf("Bool(0.5): %d/10000 true, outside [4500,5500]", n)
	}
}

func BenchmarkLoopScheduleStep(b *testing.B) {
	l := NewLoop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Schedule(time.Microsecond, func() {})
		l.Step()
	}
}

// BenchmarkLoopHeap is the heap's unit cost at the depth routed-topology
// probes run at (-stats reports a peak of ~200 pending events): each op
// pops the earliest event, pushes a replacement and, every other op,
// retargets a pending timer, so the heap stays near 200 entries.
func BenchmarkLoopHeap(b *testing.B) {
	const depth = 200
	l := NewLoop()
	rng := NewRand(1, 2)
	noop := func(any) {}
	var timers [depth]Timer
	for i := range timers {
		timers[i] = l.AtArg(Time(rng.IntN(1000)), noop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step()
		j := i % depth
		timers[j] = l.AtArg(l.Now().Add(time.Duration(rng.IntN(1000))), noop, nil)
		if i&1 == 0 {
			k := rng.IntN(depth)
			if timers[k].Pending() {
				timers[k] = l.RescheduleArg(timers[k], l.Now().Add(time.Duration(rng.IntN(1000))), noop, nil)
			}
		}
	}
}

// Property: however events are scheduled, cancelled, retargeted and reset
// — At, AtArg, Stop, Reschedule, RescheduleArg and Reset interleaved with
// stepping, and callbacks scheduling more — execution follows a reference
// model that sorts live events by (at, seq), where seq counts every push
// and retarget since the last Reset. Stop, Pending and Len agree with the
// model too.
func TestQuickEventOrderingProperty(t *testing.T) {
	type pending struct {
		at  Time
		seq uint64
		id  int
	}
	for seed := uint64(0); seed < 30; seed++ {
		l := NewLoop()
		rng := NewRand(seed, 0xeee)
		var (
			model  []pending // live events in the reference model
			seq    uint64    // the model's copy of the loop's sequence counter
			timers []Timer   // every handle handed out, by event id
			nfired int
		)
		find := func(id int) int {
			for i, p := range model {
				if p.id == id {
					return i
				}
			}
			return -1
		}
		remove := func(id int) bool {
			i := find(id)
			if i < 0 {
				return false
			}
			model = append(model[:i], model[i+1:]...)
			return true
		}
		earliest := func() pending {
			m := model[0]
			for _, p := range model[1:] {
				if p.at < m.at || (p.at == m.at && p.seq < m.seq) {
					m = p
				}
			}
			return m
		}
		var op func(depth int)
		fire := func(id int, depth int) {
			if len(model) == 0 {
				t.Fatalf("seed %d: event %d fired with nothing pending in the model", seed, id)
			}
			want := earliest()
			if want.id != id || want.at != l.Now() {
				t.Fatalf("seed %d: fired event %d at %v, want %d at %v", seed, id, l.Now(), want.id, want.at)
			}
			remove(id)
			nfired++
			if depth < 2 && rng.Bool(0.3) {
				op(depth + 1)
			}
		}
		callbacks := func(id, depth int) (func(), func(any)) {
			fn := func() { fire(id, depth) }
			afn := func(arg any) { fire(*arg.(*int), depth) }
			return fn, afn
		}
		add := func(at Time) int {
			if at < l.Now() {
				at = l.Now()
			}
			id := len(timers)
			model = append(model, pending{at: at, seq: seq, id: id})
			seq++
			return id
		}
		op = func(depth int) {
			at := l.Now().Add(time.Duration(rng.IntN(20)-2) * time.Microsecond) // ties and past times
			switch k := rng.IntN(10); {
			case k < 3: // At
				id := add(at)
				fn, _ := callbacks(id, depth)
				timers = append(timers, l.At(at, fn))
			case k < 5: // AtArg
				id := add(at)
				_, afn := callbacks(id, depth)
				arg := id
				timers = append(timers, l.AtArg(at, afn, &arg))
			case k < 7 && len(timers) > 0: // Stop a random handle, stale or live
				victim := rng.IntN(len(timers))
				if got, want := timers[victim].Stop(), remove(victim); got != want {
					t.Fatalf("seed %d: Stop(%d) = %v, model says %v", seed, victim, got, want)
				}
			case k < 9 && len(timers) > 0: // Reschedule a random handle
				victim := rng.IntN(len(timers))
				remove(victim)
				id := add(at)
				fn, afn := callbacks(id, depth)
				if rng.Bool(0.5) {
					timers = append(timers, l.Reschedule(timers[victim], at, fn))
				} else {
					arg := id
					timers = append(timers, l.RescheduleArg(timers[victim], at, afn, &arg))
				}
				if timers[victim].Pending() {
					t.Fatalf("seed %d: handle %d still pending after Reschedule", seed, victim)
				}
			case depth == 0 && rng.Bool(0.05): // Reset
				l.Reset()
				model, seq = model[:0], 0
			}
		}
		for round := 0; round < 400; round++ {
			op(0)
			if rng.Bool(0.4) {
				l.Step()
			}
			if rng.Bool(0.1) {
				l.RunFor(time.Duration(rng.IntN(10)) * time.Microsecond)
			}
			if l.Len() != len(model) {
				t.Fatalf("seed %d round %d: Len = %d, model holds %d", seed, round, l.Len(), len(model))
			}
			for id, tm := range timers {
				if got, want := tm.Pending(), find(id) >= 0; got != want {
					t.Fatalf("seed %d round %d: Pending(%d) = %v, model says %v", seed, round, id, got, want)
				}
			}
		}
		l.RunUntilIdle(0)
		if len(model) != 0 {
			t.Fatalf("seed %d: %d model events never fired", seed, len(model))
		}
		if nfired == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
	}
}
