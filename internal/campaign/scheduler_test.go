package campaign

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reorder/internal/obs"
)

// TestSchedulerOrderedEmit checks that completions are re-sequenced into
// strict index order regardless of worker interleaving.
func TestSchedulerOrderedEmit(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 8})
	const n = 100
	var mu sync.Mutex
	done := make([]bool, n)
	var emitted []int
	err := s.RunSpans(0, n, nil,
		func(worker, index, attempt int) error {
			// Uneven simulated work so completion order scrambles.
			time.Sleep(time.Duration(index%7) * time.Millisecond / 4)
			mu.Lock()
			done[index] = true
			mu.Unlock()
			return nil
		},
		eachIndex(t, func(index int) error {
			if !done[index] {
				t.Errorf("emit(%d) before its job finished", index)
			}
			emitted = append(emitted, index)
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != n {
		t.Fatalf("emitted %d of %d", len(emitted), n)
	}
	for i, v := range emitted {
		if v != i {
			t.Fatalf("emit order broken at %d: got %d", i, v)
		}
	}
}

// eachIndex adapts a per-index emit hook to RunSpans' span emit: it calls
// emit (if non-nil) for each index of every span, in order, and fails the
// test unless the spans arrive ascending and gap-free.
func eachIndex(t *testing.T, emit func(index int) error) func(lo, hi int) error {
	next := -1
	return func(lo, hi int) error {
		if (next >= 0 && lo != next) || hi <= lo {
			t.Errorf("emitSpan(%d, %d) after a span ending at %d", lo, hi, next)
		}
		next = hi
		for i := lo; emit != nil && i < hi; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
		return nil
	}
}

// fakeClock drives the scheduler's now and afterFunc hooks. Time moves
// only through advance or, in auto mode, by each timer's full duration the
// moment it is armed, firing it at once; every armed duration is recorded.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	auto   bool
	armed  []time.Duration
	timers []*fakeTimer
}

type fakeTimer struct {
	at   time.Time
	f    func()
	dead bool
}

// newFakeClock returns a clock at the Unix epoch installed in s.
func newFakeClock(s *Scheduler, auto bool) *fakeClock {
	c := &fakeClock{now: time.Unix(0, 0), auto: auto}
	s.now, s.afterFunc = c.Now, c.AfterFunc
	return c
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc arms f to run on its own goroutine once d has passed.
func (c *fakeClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = append(c.armed, d)
	t := &fakeTimer{at: c.now.Add(d), f: f}
	if c.auto {
		c.now = t.at
		t.dead = true
		go f()
	} else {
		c.timers = append(c.timers, t)
	}
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		live := !t.dead
		t.dead = true
		return live
	}
}

// advance moves time forward by d, firing every timer that fell due.
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	live := c.timers[:0]
	for _, t := range c.timers {
		switch {
		case t.dead:
		case !t.at.After(c.now):
			t.dead = true
			go t.f()
		default:
			live = append(live, t)
		}
	}
	c.timers = live
	c.mu.Unlock()
}

// live counts the armed timers that have neither fired nor been cancelled.
func (c *fakeClock) live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.timers {
		if !t.dead {
			n++
		}
	}
	return n
}

func (c *fakeClock) armedDurations() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.armed...)
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSchedulerRetryBackoff checks the retry budget and the doubling
// backoff schedule: each attempt at the failing index starts exactly its
// backoff after the previous one (b, 2b, 4b). The clock moves only by the
// armed backoffs, so the attempt start times are exact.
func TestSchedulerRetryBackoff(t *testing.T) {
	const b = 50 * time.Millisecond
	reg := &obs.Scheduler{}
	s := NewScheduler(SchedulerConfig{Workers: 1, Retries: 3, Backoff: b, Obs: reg})
	clk := newFakeClock(s, true)

	var starts []time.Time
	err := s.RunSpans(0, 1, nil,
		func(worker, index, attempt int) error {
			starts = append(starts, clk.Now())
			if attempt < 3 {
				return errors.New("transient")
			}
			return nil
		}, eachIndex(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{b, 2 * b, 4 * b}
	if len(starts) != len(want)+1 {
		t.Fatalf("attempts = %d, want %d", len(starts), len(want)+1)
	}
	for k, d := range want {
		if delay := starts[k+1].Sub(starts[k]); delay != d {
			t.Fatalf("attempt %d started %v after attempt %d, want %v", k+1, delay, k, d)
		}
	}
	if got := clk.armedDurations(); !slices.Equal(got, want) {
		t.Fatalf("backoff timers = %v, want %v", got, want)
	}
	if got := reg.Retries.Load(); got != 3 {
		t.Fatalf("Retries = %d, want 3", got)
	}
	if got := time.Duration(reg.BackoffNanos.Load()); got != 7*b {
		t.Fatalf("BackoffNanos = %v, want %v", got, 7*b)
	}
}

// TestSchedulerRetriesExhausted checks that a job failing every attempt
// still counts as done and the run completes.
func TestSchedulerRetriesExhausted(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, Retries: 2})
	attempts := make([]int, 3)
	emitted := 0
	err := s.RunSpans(0, 3, nil,
		func(worker, index, attempt int) error {
			attempts[index]++
			return errors.New("always fails")
		},
		eachIndex(t, func(index int) error { emitted++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 3 {
		t.Fatalf("emitted = %d, want 3", emitted)
	}
	for i, a := range attempts {
		if a != 3 {
			t.Fatalf("job %d ran %d attempts, want 3", i, a)
		}
	}
}

// TestSchedulerDispatchWindow checks the bounded re-sequencing contract:
// while a slow job holds the emit frontier, job execution never runs more
// than Window indices ahead, so completed-but-unemitted state (and any
// per-index ring the caller keys on MaxWindow) stays bounded.
func TestSchedulerDispatchWindow(t *testing.T) {
	const window = 8
	s := NewScheduler(SchedulerConfig{Workers: 4, Window: window})
	release := make(chan struct{})
	var mu sync.Mutex
	maxStarted := 0
	emitted := 0
	// Index 0 holds the frontier; after the pool has had ample time to
	// overreach (wrongly) past the window, check and release.
	go func() {
		time.Sleep(50 * time.Millisecond)
		mu.Lock()
		got := maxStarted
		mu.Unlock()
		if got >= window {
			t.Errorf("execution reached index %d with frontier held; window is %d", got, window)
		}
		close(release)
	}()
	err := s.RunSpans(0, 100, nil,
		func(worker, index, attempt int) error {
			mu.Lock()
			if index > maxStarted {
				maxStarted = index
			}
			mu.Unlock()
			if index == 0 {
				<-release // hold the emit frontier
			}
			return nil
		},
		eachIndex(t, func(index int) error { emitted++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 100 {
		t.Fatalf("emitted %d of 100", emitted)
	}
}

// TestSchedulerEmitError checks that an emit failure cancels the run and
// surfaces the error.
func TestSchedulerEmitError(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4})
	sentinel := errors.New("sink full")
	err := s.RunSpans(0, 64, nil,
		func(worker, index, attempt int) error { return nil },
		eachIndex(t, func(index int) error {
			if index == 5 {
				return sentinel
			}
			return nil
		}))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

// TestTokenBucket drives the limiter with a fake clock: the armed waits
// are the only thing advancing time, so the token arithmetic is fully
// observable.
func TestTokenBucket(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1})
	clk := newFakeClock(s, true)
	slept := func() (d time.Duration) {
		for _, w := range clk.armedDurations() {
			d += w
		}
		return d
	}
	tb := newTokenBucket(10, 1, s.now) // 10 tokens/s, burst 1

	tb.take(s, nil) // the initial burst token: no wait
	if got := slept(); got != 0 {
		t.Fatalf("first take slept %v, want 0", got)
	}
	tb.take(s, nil)
	tb.take(s, nil)
	// Each subsequent token accrues at 100ms.
	if got, want := slept(), 200*time.Millisecond; got != want {
		t.Fatalf("three takes slept %v, want %v", got, want)
	}

	if tb := newTokenBucket(0, 4, s.now); tb != nil {
		t.Fatal("rate 0 should disable the limiter")
	}
}

// TestSchedulerCancelInterruptsRateWait checks that an emit failure is
// not held hostage by the rate limiter: workers parked on token waits
// abort when the run is cancelled.
func TestSchedulerCancelInterruptsRateWait(t *testing.T) {
	// One launch every 2 seconds; without interruptible waits this run
	// would take ~6+ seconds to unwind after the emit error.
	s := NewScheduler(SchedulerConfig{Workers: 4, RatePerSec: 0.5, Burst: 1})
	sentinel := errors.New("sink failed")
	began := time.Now()
	err := s.RunSpans(0, 10, nil,
		func(worker, index, attempt int) error { return nil },
		eachIndex(t, func(index int) error { return sentinel }))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if elapsed := time.Since(began); elapsed > time.Second {
		t.Fatalf("cancel took %v; rate-limit waits were not interrupted", elapsed)
	}
}

// TestSchedulerEmitErrorMidBatch checks cancellation when the emit error
// is raised partway through a span's indices: the error must surface, and
// workers mid-span (including ones parked on the window gate) must unwind
// promptly instead of finishing the campaign.
func TestSchedulerEmitErrorMidBatch(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4, Batch: 8})
	sentinel := errors.New("sink full mid-batch")
	var jobs atomic.Int64
	began := time.Now()
	err := s.RunSpans(0, 10_000, nil,
		func(worker, index, attempt int) error {
			jobs.Add(1)
			return nil
		},
		eachIndex(t, func(index int) error {
			if index == 13 { // mid-span for every batch size > 1
				return sentinel
			}
			return nil
		}))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if elapsed := time.Since(began); elapsed > 5*time.Second {
		t.Fatalf("mid-batch cancel took %v", elapsed)
	}
	// The window bounds how much work can have been dispatched past the
	// failed emit; a full run would be 10000 jobs.
	if got := jobs.Load(); got > int64(s.MaxWindow())+13+1 {
		t.Fatalf("ran %d jobs after mid-batch emit error; window is %d", got, s.MaxWindow())
	}
}

// TestSchedulerStopDuringRetryBackoff checks that a run cancelled while
// spans wait out a retry backoff returns promptly: the fake clock never
// reaches the minute-long backoff, so completing at all proves the
// cancellation did not wait for it, and the backoff timer is cancelled.
func TestSchedulerStopDuringRetryBackoff(t *testing.T) {
	// Batch 1 keeps the clean index in its own span, so its emit (the
	// cancellation trigger) is not gated on the failing spans finishing.
	reg := &obs.Scheduler{}
	s := NewScheduler(SchedulerConfig{Workers: 2, Retries: 3, Backoff: time.Minute, Batch: 1, Obs: reg})
	clk := newFakeClock(s, false)
	sentinel := errors.New("emit failed")
	began := time.Now()
	err := s.RunSpans(0, 8, nil,
		func(worker, index, attempt int) error {
			if index == 0 {
				// Hold the cancellation until the other worker has
				// parked a span on its backoff.
				waitFor(t, "a parked retry", func() bool { return reg.PeakParked.Load() > 0 })
				return nil
			}
			return errors.New("always failing: park in backoff")
		},
		eachIndex(t, func(index int) error { return sentinel }))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if elapsed := time.Since(began); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v; a minute-long backoff was not interrupted", elapsed)
	}
	if n := clk.live(); n != 0 {
		t.Fatalf("%d backoff timers still armed after the run returned", n)
	}
	if got := reg.BackoffNanos.Load(); got != 0 {
		t.Fatalf("BackoffNanos = %v after a cancel before any backoff ended", time.Duration(got))
	}
}

// TestSchedulerRetryHeadOfLine is the point of parking: index 0 fails
// with a long backoff, and while it waits the pool completes every index
// up to the widened window (1 .. MaxWindow-1) without running one beyond
// it; only then does the retry run, and emit order stays intact.
func TestSchedulerRetryHeadOfLine(t *testing.T) {
	reg := &obs.Scheduler{}
	s := NewScheduler(SchedulerConfig{Workers: 2, Retries: 1, Backoff: time.Hour, Batch: 1, Obs: reg})
	clk := newFakeClock(s, false)
	ceiling := s.MaxWindow()
	if ceiling != retryWindow {
		t.Fatalf("MaxWindow() = %d with retries and backoff, want %d", ceiling, retryWindow)
	}
	n := ceiling + 500
	var done, beyond atomic.Int64
	var retried atomic.Bool
	var emitted []int
	errc := make(chan error, 1)
	go func() {
		errc <- s.RunSpans(0, n, nil,
			func(worker, index, attempt int) error {
				switch {
				case index == 0 && attempt == 0:
					return errors.New("transient")
				case index == 0:
					retried.Store(true)
					if got := done.Load(); got != int64(ceiling-1) {
						t.Errorf("retry ran after %d indices completed, want %d", got, ceiling-1)
					}
				case index >= ceiling && !retried.Load():
					beyond.Add(1)
				default:
					done.Add(1)
				}
				return nil
			},
			eachIndex(t, func(index int) error { emitted = append(emitted, index); return nil }))
	}()
	// Every index up to the window completes and waits for emit behind
	// index 0, and every worker parks on the window gate.
	waitFor(t, "the pool to fill the widened window", func() bool {
		return reg.PeakUnemitted.Load() == int64(ceiling-1) && reg.WindowStalls.Load() >= 2
	})
	clk.advance(time.Hour)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := beyond.Load(); got != 0 {
		t.Fatalf("%d indices beyond the window ran while index 0 was parked", got)
	}
	if !retried.Load() {
		t.Fatal("index 0 was never retried")
	}
	if len(emitted) != n {
		t.Fatalf("emitted %d of %d", len(emitted), n)
	}
	for i, v := range emitted {
		if v != i {
			t.Fatalf("emit order broken at %d: got %d", i, v)
		}
	}
	// Index 0 joins the buffered indices just before they all emit.
	if got := reg.PeakUnemitted.Load(); got != int64(ceiling) {
		t.Fatalf("PeakUnemitted = %d after the run, want %d", got, ceiling)
	}
}

// TestSchedulerExplicitWindowBoundsRetries checks that an explicit Window
// stays a hard bound while a retry is parked: the window does not widen,
// and MaxWindow says so.
func TestSchedulerExplicitWindowBoundsRetries(t *testing.T) {
	const window, n = 8, 100
	reg := &obs.Scheduler{}
	s := NewScheduler(SchedulerConfig{Workers: 4, Retries: 2, Backoff: time.Hour, Window: window, Batch: 1, Obs: reg})
	clk := newFakeClock(s, false)
	if got := s.MaxWindow(); got != window {
		t.Fatalf("MaxWindow() = %d under an explicit window, want %d", got, window)
	}
	var done, beyond atomic.Int64
	var retried atomic.Bool
	errc := make(chan error, 1)
	go func() {
		errc <- s.RunSpans(0, n, nil,
			func(worker, index, attempt int) error {
				switch {
				case index == 0 && attempt == 0:
					return errors.New("transient")
				case index == 0:
					retried.Store(true)
				case index >= window && !retried.Load():
					beyond.Add(1)
				}
				done.Add(1)
				return nil
			}, eachIndex(t, nil))
	}()
	waitFor(t, "the window to fill behind index 0", func() bool {
		return reg.PeakUnemitted.Load() == window-1 && reg.WindowStalls.Load() >= 4
	})
	clk.advance(time.Hour)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := beyond.Load(); got != 0 {
		t.Fatalf("%d indices at or beyond the window of %d ran while index 0 was parked", got, window)
	}
	if got := done.Load(); got != n {
		t.Fatalf("completed %d of %d", got, n)
	}
}

// TestSchedulerStopBlockedInTokenTake checks that workers blocked inside
// tokenBucket.take abort on cancellation even at batch granularity (span
// dispatch under rate limiting degrades to single-index spans, but the
// cancel path must hold regardless of the configured batch).
func TestSchedulerStopBlockedInTokenTake(t *testing.T) {
	// One token up front, then one every 10 minutes: every worker but the
	// first parks inside take.
	s := NewScheduler(SchedulerConfig{Workers: 4, RatePerSec: 1.0 / 600, Burst: 1, Batch: 16})
	sentinel := errors.New("emit failed")
	began := time.Now()
	err := s.RunSpans(0, 100, nil,
		func(worker, index, attempt int) error { return nil },
		eachIndex(t, func(index int) error { return sentinel }))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if elapsed := time.Since(began); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v; token waits were not interrupted", elapsed)
	}
}

// TestSchedulerSpanCoverage is the exactly-once property of span
// dispatch: for randomized worker/window/batch combinations (including
// degenerate ones — window smaller than batch, batch larger than the
// run), every index in [start,end) runs exactly once, spans partition the
// range, and emits arrive in strict index order.
func TestSchedulerSpanCoverage(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 40; trial++ {
		workers := 1 + rng.IntN(8)
		window := rng.IntN(3) * (1 + rng.IntN(20)) // 0 = adaptive, else 1..40 (clamped)
		batch := rng.IntN(4) * (1 + rng.IntN(30))  // 0 = adaptive, else 1..90
		start := rng.IntN(5)
		end := start + rng.IntN(400)
		s := NewScheduler(SchedulerConfig{Workers: workers, Window: window, Batch: batch})

		ran := make([]int32, end)
		var mu sync.Mutex
		var begun []int // alternating lo, hi
		var emitted []int
		err := s.RunSpans(start, end,
			func(worker, lo, hi int) {
				mu.Lock()
				begun = append(begun, lo, hi)
				mu.Unlock()
			},
			func(worker, index, attempt int) error {
				atomic.AddInt32(&ran[index], 1)
				return nil
			},
			func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					emitted = append(emitted, i)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("trial %d (w=%d win=%d batch=%d [%d,%d)): %v", trial, workers, window, batch, start, end, err)
		}
		for i := start; i < end; i++ {
			if ran[i] != 1 {
				t.Fatalf("trial %d (w=%d win=%d batch=%d): index %d ran %d times", trial, workers, window, batch, i, ran[i])
			}
		}
		if len(emitted) != end-start {
			t.Fatalf("trial %d: emitted %d of %d", trial, len(emitted), end-start)
		}
		for k, v := range emitted {
			if v != start+k {
				t.Fatalf("trial %d: emit order broken at %d: got %d", trial, k, v)
			}
		}
		// Spans must partition [start,end): sorted by lo they must tile
		// exactly, with no overlap or gap.
		type sp struct{ lo, hi int }
		spans := make([]sp, 0, len(begun)/2)
		for i := 0; i < len(begun); i += 2 {
			spans = append(spans, sp{begun[i], begun[i+1]})
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		at := start
		for _, q := range spans {
			if q.lo != at || q.hi <= q.lo || q.hi > end {
				t.Fatalf("trial %d: spans do not partition [%d,%d): %v", trial, start, end, spans)
			}
			at = q.hi
		}
		if at != end {
			t.Fatalf("trial %d: spans stop at %d, want %d", trial, at, end)
		}
	}
}

// TestSchedulerAdaptiveWindowBounds drives a run with wildly uneven job
// latencies under the adaptive window and checks the structural
// guarantees the ring-buffer callers rely on: execution never runs more
// than MaxWindow ahead of the emit frontier, and everything completes.
func TestSchedulerAdaptiveWindowBounds(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 8}) // Window 0: adaptive
	maxW := s.MaxWindow()
	var mu sync.Mutex
	frontier := 0
	worst := 0
	err := s.RunSpans(0, 500, nil,
		func(worker, index, attempt int) error {
			mu.Lock()
			if ahead := index - frontier; ahead > worst {
				worst = ahead
			}
			mu.Unlock()
			if index%97 == 0 {
				time.Sleep(2 * time.Millisecond) // straggler
			}
			return nil
		},
		eachIndex(t, func(index int) error {
			mu.Lock()
			frontier = index + 1
			mu.Unlock()
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if worst >= maxW {
		t.Fatalf("execution ran %d ahead of the frontier; MaxWindow is %d", worst, maxW)
	}
}

// TestSchedulerRateLimit checks that the pool threads every attempt
// through the bucket.
func TestSchedulerRateLimit(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, RatePerSec: 1000, Burst: 1})
	clk := newFakeClock(s, true)
	err := s.RunSpans(0, 5, nil, func(worker, index, attempt int) error { return nil }, eachIndex(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	var slept time.Duration
	for _, d := range clk.armedDurations() {
		slept += d
	}
	// 5 launches, burst 1: at least 4 tokens accrued by sleeping.
	if slept < 4*time.Millisecond {
		t.Fatalf("rate limiter slept %v, want >= 4ms", slept)
	}
}
