// Package sim implements a deterministic discrete-event simulator used as
// the time base for every experiment in this repository.
//
// The simulator models virtual time as nanoseconds since the start of a run.
// Components schedule callbacks on a Loop; the Loop executes them in
// timestamp order (ties broken by scheduling order), advancing the virtual
// clock as it goes. Nothing in the simulator sleeps or consults the wall
// clock, so a run that models 20 days of probing completes in milliseconds
// and is exactly reproducible given the same seed.
//
// The event queue is a slice-backed inline 4-ary min-heap of pointer-free
// {at, seq, slot} keys: scheduling allocates nothing on the steady-state
// path, which matters when a campaign pumps millions of events per second
// through the probe engine. The callback and its argument live in the
// event's slot, a generation-counted entry of a free-listed table that
// also backs Timer handles, so cancelling is O(1) and a heap move copies
// 24 bytes with no write barrier. Sifts move a hole rather than swapping.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulation. The zero Time is the moment the Loop was created.
type Time int64

// Add returns the Time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the elapsed duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time as an elapsed duration, e.g. "1.5ms".
func (t Time) String() string { return time.Duration(t).String() }

// A Timer is a handle to a scheduled callback. It can be stopped before it
// fires. The zero Timer is inert. Timers are small values; copying them is
// fine, and a Timer outliving its event (or a Loop.Reset) is harmlessly
// inert because its generation no longer matches.
type Timer struct {
	l    *Loop
	slot int32
	gen  uint32
}

// Stop cancels the timer. It reports whether the call prevented the callback
// from firing. Stopping an already-fired or already-stopped timer is a no-op.
func (t Timer) Stop() bool {
	if t.l == nil {
		return false
	}
	s := &t.l.slots[t.slot]
	if s.gen != t.gen || s.heapIdx < 0 || !s.live() {
		return false
	}
	s.clear()
	t.l.dead++
	t.l.maybeCompact()
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	if t.l == nil {
		return false
	}
	s := &t.l.slots[t.slot]
	return s.gen == t.gen && s.heapIdx >= 0 && s.live()
}

// event is one heap entry: the (at, seq) ordering key and the slot that
// holds its callback. It carries no pointers, so sifting it is a plain
// copy.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant
	slot int32
}

// slotState backs one scheduled event and its Timer handles. Exactly one
// of fn and afn is non-nil while the event is live; both nil marks a
// cancelled event awaiting drain (or a free slot). afn+arg is the
// allocation-free form: a pointer-shaped arg boxed into an interface does
// not allocate, so elements that forward frames can schedule with one
// long-lived callback instead of a fresh closure per frame. heapIdx tracks
// where the event currently sits in the heap (-1 once it has fired or
// drained); gen invalidates stale handles when the slot is reused.
type slotState struct {
	fn      func()
	afn     func(any)
	arg     any
	heapIdx int32
	gen     uint32
}

func (s *slotState) live() bool { return s.fn != nil || s.afn != nil }

// clear drops the callback references, so a fired, cancelled or reset
// slot cannot keep frames or closures reachable.
func (s *slotState) clear() { s.fn, s.afn, s.arg = nil, nil, nil }

// Loop is a discrete-event scheduler. It is not safe for concurrent use;
// the entire simulation, including all network elements and the prober,
// runs single-threaded on one Loop.
type Loop struct {
	now    Time
	events []event // inline 4-ary min-heap ordered by (at, seq)
	seq    uint64
	ran    uint64
	dead   int // cancelled events still occupying heap entries

	resched     uint64
	compactions uint64
	peakHeap    int

	slots    []slotState
	freeSlot []int32
}

// LoopStats is a snapshot of the loop's internal counters, exposed for the
// telemetry layer: callbacks executed, in-place timer reschedules, dead-entry
// heap compactions, and the deepest heap observed. All are cumulative since
// the last Reset.
type LoopStats struct {
	Executed     uint64
	Rescheduled  uint64
	Compactions  uint64
	PeakHeapSize int
}

// Stats returns the loop's counters since the last Reset.
func (l *Loop) Stats() LoopStats {
	return LoopStats{
		Executed:     l.ran,
		Rescheduled:  l.resched,
		Compactions:  l.compactions,
		PeakHeapSize: l.peakHeap,
	}
}

// NewLoop returns a Loop with the clock at time zero and no pending events.
func NewLoop() *Loop { return &Loop{} }

// Reset returns the loop to its initial state — clock at zero, no pending
// events, counters cleared — while keeping the heap and slot-table capacity
// for reuse. Every outstanding Timer is invalidated (its slot generation is
// bumped), so handles from the previous run can never cancel events of the
// next one. A Reset loop is indistinguishable from a NewLoop one.
func (l *Loop) Reset() {
	for i := range l.events {
		s := &l.slots[l.events[i].slot]
		s.gen++
		s.clear()
	}
	l.events = l.events[:0]
	l.freeSlot = l.freeSlot[:0]
	for i := range l.slots {
		l.slots[i].heapIdx = -1
		l.freeSlot = append(l.freeSlot, int32(i))
	}
	l.now, l.seq, l.ran, l.dead = 0, 0, 0, 0
	l.resched, l.compactions, l.peakHeap = 0, 0, 0
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Len returns the number of live pending events. Stopped timers whose heap
// entries have not yet been drained are not counted: Len answers "how much
// work is still scheduled", which is what idle detection and pending-event
// assertions mean by it.
func (l *Loop) Len() int { return len(l.events) - l.dead }

// Processed returns the total number of callbacks executed so far.
func (l *Loop) Processed() uint64 { return l.ran }

// Schedule arranges for fn to run after delay d of virtual time. A negative
// delay is treated as zero (the event runs at the current instant, after any
// earlier-scheduled events at the same instant). It returns a Timer that can
// cancel the callback.
func (l *Loop) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return l.At(l.now.Add(d), fn)
}

// ScheduleArg is Schedule for a long-lived callback taking an argument; see
// AtArg.
func (l *Loop) ScheduleArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return l.AtArg(l.now.Add(d), fn, arg)
}

// At arranges for fn to run at absolute virtual time t. Times in the past
// are clamped to the present.
func (l *Loop) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	return l.push(t, fn, nil, nil)
}

// AtArg arranges for fn(arg) to run at absolute virtual time t. Unlike At
// with a fresh closure, a long-lived fn plus a pointer-shaped arg schedules
// without allocating — the fast path network elements use to forward frames.
func (l *Loop) AtArg(t Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: AtArg called with nil callback")
	}
	return l.push(t, nil, fn, arg)
}

// Reschedule moves a timer to fire fn at absolute time t instead, re-sifting
// the existing heap entry in place — one sift instead of the lazy cancel, the
// dead-entry drain and the fresh push that Stop+At cost. If tm no longer has
// a heap entry (it fired, drained, or belongs to a previous Reset), fn is
// simply scheduled fresh. The returned Timer replaces tm; older copies of tm
// are invalidated exactly as Stop+At would leave them, and the rescheduled
// event takes a fresh sequence number, so execution order is identical to
// tm.Stop() followed by At(t, fn).
func (l *Loop) Reschedule(tm Timer, t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: Reschedule called with nil callback")
	}
	return l.reschedule(tm, t, fn, nil, nil)
}

// RescheduleArg is Reschedule for the allocation-free callback form of
// AtArg.
func (l *Loop) RescheduleArg(tm Timer, t Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: RescheduleArg called with nil callback")
	}
	return l.reschedule(tm, t, nil, fn, arg)
}

// reschedule retargets tm's heap entry when one still exists (live or
// stopped-but-undrained), falling back to a plain push.
func (l *Loop) reschedule(tm Timer, t Time, fn func(), afn func(any), arg any) Timer {
	if tm.l != l {
		return l.push(t, fn, afn, arg)
	}
	s := &l.slots[tm.slot]
	if s.gen != tm.gen || s.heapIdx < 0 {
		return l.push(t, fn, afn, arg)
	}
	if t < l.now {
		t = l.now
	}
	if !s.live() {
		l.dead-- // reviving a stopped entry in place
	}
	s.gen++ // invalidate stale handles, as Stop+At would
	s.fn, s.afn, s.arg = fn, afn, arg
	ev := &l.events[s.heapIdx]
	ev.at, ev.seq = t, l.seq
	l.seq++
	l.siftDown(s.heapIdx)
	l.siftUp(s.heapIdx)
	l.resched++
	return Timer{l: l, slot: tm.slot, gen: s.gen}
}

// maybeCompact rebuilds the heap without its cancelled entries once they
// outnumber the live ones, so long-running simulations that stop many timers
// (delayed-ACK races, retransmission cancels) stop paying sift comparisons
// for dead weight. Rebuilding never changes execution order: pop order is a
// pure function of the (at, seq) keys, which compaction preserves.
func (l *Loop) maybeCompact() {
	if l.dead < 64 || l.dead*2 < len(l.events) {
		return
	}
	l.compactions++
	kept := l.events[:0]
	for _, ev := range l.events {
		if s := &l.slots[ev.slot]; !s.live() {
			s.heapIdx = -1
			s.gen++
			l.freeSlot = append(l.freeSlot, ev.slot)
			continue
		}
		kept = append(kept, ev)
	}
	l.events = kept
	l.dead = 0
	for i := range kept {
		l.slots[kept[i].slot].heapIdx = int32(i)
	}
	for i := int32(len(kept)-2) / heapArity; i >= 0; i-- {
		l.siftDown(i)
	}
}

// push allocates a slot and sifts the new event into the heap.
func (l *Loop) push(t Time, fn func(), afn func(any), arg any) Timer {
	if t < l.now {
		t = l.now
	}
	var slot int32
	if n := len(l.freeSlot); n > 0 {
		slot = l.freeSlot[n-1]
		l.freeSlot = l.freeSlot[:n-1]
	} else {
		slot = int32(len(l.slots))
		l.slots = append(l.slots, slotState{})
	}
	s := &l.slots[slot]
	s.fn, s.afn, s.arg = fn, afn, arg
	i := int32(len(l.events))
	l.events = append(l.events, event{at: t, seq: l.seq, slot: slot})
	l.seq++
	if n := len(l.events); n > l.peakHeap {
		l.peakHeap = n
	}
	l.siftUp(i)
	return Timer{l: l, slot: slot, gen: s.gen}
}

// less orders events by timestamp, then scheduling order. The key is unique
// per event, so heap pop order is a total order identical to the previous
// container/heap implementation's.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const heapArity = 4

// siftUp moves the entry at i toward the root, shifting each larger parent
// down into the hole it leaves and writing the entry once at its final
// index.
func (l *Loop) siftUp(i int32) {
	ev := l.events[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := &l.events[parent]
		if !less(&ev, p) {
			break
		}
		l.events[i] = *p
		l.slots[p.slot].heapIdx = i
		i = parent
	}
	l.events[i] = ev
	l.slots[ev.slot].heapIdx = i
}

// siftDown moves the entry at i toward the leaves, shifting the smallest
// child up into the hole at each level.
func (l *Loop) siftDown(i int32) {
	ev := l.events[i]
	n := int32(len(l.events))
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := min(first+heapArity, n)
		for c := first + 1; c < last; c++ {
			if less(&l.events[c], &l.events[best]) {
				best = c
			}
		}
		m := &l.events[best]
		if !less(m, &ev) {
			break
		}
		l.events[i] = *m
		l.slots[m.slot].heapIdx = i
		i = best
	}
	l.events[i] = ev
	l.slots[ev.slot].heapIdx = i
}

// popMin removes the earliest event and releases its slot, clearing the
// callback references; callers that need them read them off the slot
// first.
func (l *Loop) popMin() {
	slot := l.events[0].slot
	s := &l.slots[slot]
	if !s.live() {
		l.dead-- // draining a cancelled entry
	}
	s.clear()
	s.heapIdx = -1
	s.gen++
	l.freeSlot = append(l.freeSlot, slot)
	n := int32(len(l.events)) - 1
	if n > 0 {
		l.events[0] = l.events[n]
	}
	l.events = l.events[:n]
	if n > 0 {
		l.siftDown(0)
	}
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed. Cancelled events are
// skipped without being counted.
func (l *Loop) Step() bool {
	for len(l.events) > 0 {
		at := l.events[0].at
		s := &l.slots[l.events[0].slot]
		fn, afn, arg := s.fn, s.afn, s.arg
		l.popMin()
		if fn == nil && afn == nil {
			continue // cancelled
		}
		l.now = at
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
		l.ran++
		return true
	}
	return false
}

// StepBefore executes the earliest pending event if it is due at or before
// t, reporting whether one ran. It is the fused peek+Step synchronous
// drivers pump the loop with — one heap-root inspection per event instead
// of two.
func (l *Loop) StepBefore(t Time) bool {
	for len(l.events) > 0 {
		ev := &l.events[0]
		if !l.slots[ev.slot].live() {
			l.popMin() // drain cancelled entries at the root
			continue
		}
		if ev.at > t {
			return false
		}
		return l.Step()
	}
	return false
}

// RunUntil executes events up to and including virtual time t, then advances
// the clock to exactly t. Events scheduled during execution are honored if
// they fall within the horizon.
func (l *Loop) RunUntil(t Time) {
	for l.StepBefore(t) {
	}
	if l.now < t {
		l.now = t
	}
}

// RunFor is RunUntil(Now()+d).
func (l *Loop) RunFor(d time.Duration) { l.RunUntil(l.now.Add(d)) }

// RunUntilIdle executes events until the queue is empty. It panics after
// maxEvents callbacks as a guard against runaway feedback loops; pass 0 for
// the default of 100 million.
func (l *Loop) RunUntilIdle(maxEvents uint64) {
	if maxEvents == 0 {
		maxEvents = 100_000_000
	}
	start := l.ran
	for l.Step() {
		if l.ran-start > maxEvents {
			panic(fmt.Sprintf("sim: RunUntilIdle exceeded %d events at t=%s", maxEvents, l.now))
		}
	}
}

// NextEventAt returns the timestamp of the earliest pending event, if any.
// Synchronous drivers (the probe transport) use it to decide whether pumping
// the loop can make progress before a deadline.
func (l *Loop) NextEventAt() (Time, bool) { return l.peek() }

// peek returns the timestamp of the earliest live event, draining cancelled
// events from the head of the heap as it looks.
func (l *Loop) peek() (Time, bool) {
	for len(l.events) > 0 {
		ev := &l.events[0]
		if l.slots[ev.slot].live() {
			return ev.at, true
		}
		l.popMin()
	}
	return 0, false
}
