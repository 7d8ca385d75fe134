package campaign

import (
	"sync"
	"sync/atomic"
	"time"

	"reorder/internal/obs"
)

// SchedulerConfig tunes the worker pool.
type SchedulerConfig struct {
	// Workers is the pool size (default 16).
	Workers int
	// Retries is how many additional attempts a failing job gets.
	Retries int
	// Backoff is the delay before the first retry of an index; it doubles
	// per subsequent attempt at that index (0 = retry immediately). The
	// backoff spares the failing target, not the pool: the worker parks the
	// span at the failed index and claims other work, and any worker
	// resumes the span once its backoff has passed. While a retry is
	// parked the adaptive window opens to 8192 indices, so the pool keeps
	// probing past the stalled emit frontier; what it buffers meanwhile is
	// about min(8192, completion rate × backoff) results' rendered records,
	// a few MB for campaign targets. An explicit Window never widens.
	Backoff time.Duration
	// RatePerSec caps job launches per second via a token bucket
	// (0 = unlimited). Each attempt, including retries, takes one token.
	RatePerSec float64
	// Burst is the bucket capacity (default Workers).
	Burst int
	// Window bounds how far job execution may run ahead of the in-order
	// emit frontier. It is what makes the re-sequencing buffer — and any
	// per-index state the caller retains until emit — genuinely bounded
	// when one slow job holds the frontier while thousands of later jobs
	// finish. Zero selects the adaptive window: it starts near 2×Workers
	// and tracks an EWMA of the observed completion spread, growing (up to
	// max(4×Workers, 64)) only when stragglers actually scatter
	// completions — so a campaign of uniform-speed targets keeps sink
	// latency low, and one with slow spec-stack targets widens just enough
	// to keep the pool busy. While a retry waits out its backoff the
	// adaptive window may open further, to 8192 (see Backoff). An explicit
	// Window is a hard bound at all times, pending retries included.
	Window int
	// Batch is the span size: workers claim [lo,hi) index spans of this
	// many jobs off a shared cursor, so scheduling overhead (cursor
	// claims, completion reports, re-sequencing) is paid per span rather
	// than per job. Zero selects an adaptive size from the run length and
	// worker count; rate-limited runs always dispatch singly so the token
	// bucket stays the pacing authority. Batching never changes outputs —
	// only how work is sliced.
	Batch int
	// Obs, when non-nil, receives scheduler telemetry: span claims, window
	// stalls, retries, backoff, parked spans, buffered results and
	// rate-limiter wait time. All counts are off the per-job fast path (per
	// span, per stall, per retry), so an attached registry costs the hot
	// loop nothing measurable.
	Obs *obs.Scheduler
	// Quiesce, when non-nil and closed, stops dispatch gracefully: no new
	// spans are claimed, in-flight spans (parked ones included) finish and
	// emit in order, and the run returns nil. Callers distinguish a
	// quiesced run from a completed one by how far the emit frontier got.
	Quiesce <-chan struct{}
}

// DefaultWorkers is the pool size when SchedulerConfig.Workers is zero.
const DefaultWorkers = 16

// retryWindow is the adaptive window's ceiling while a retry is parked.
// It is sized against resident memory: at the campaign defaults a window
// this wide covers a 50 ms backoff at ~150k targets/s, and the rendered
// records it can buffer add a few MB.
const retryWindow = 8192

// Scheduler runs indexed jobs through a bounded worker pool and delivers
// completions strictly in index order. Job side effects keyed by index (or
// by worker, for sharded aggregation) need no locking: each index is
// processed by exactly one worker at a time, and the emit callbacks run
// serially.
//
// Dispatch is span-granular: workers claim contiguous [lo,hi) spans off an
// atomic cursor and report whole completed spans, so the per-job cost of
// the orchestrator is a few arithmetic operations plus 1/spanSize channel
// operations — the difference between a campaign bottlenecked on channel
// hops and one bottlenecked on the probes themselves.
type Scheduler struct {
	cfg SchedulerConfig

	// maxWindow is the ceiling the (possibly adaptive) window may reach,
	// retry widening included; callers sizing per-index rings use
	// MaxWindow. steadyWindow is the ceiling while no retry is parked.
	maxWindow    int
	steadyWindow int
	// adaptive records whether Window was left to the scheduler.
	adaptive bool

	// now and afterFunc are the wall-clock hooks behind retry backoff and
	// the rate limiter, replaceable by tests. afterFunc runs f on another
	// goroutine once d has passed and returns a function that cancels it.
	now       func() time.Time
	afterFunc func(d time.Duration, f func()) (cancel func() bool)
}

// sleepStop waits d, returning false early if stop closes first.
func (s *Scheduler) sleepStop(d time.Duration, stop <-chan struct{}) bool {
	done := make(chan struct{})
	cancel := s.afterFunc(d, func() { close(done) })
	select {
	case <-done:
		return true
	case <-stop:
		cancel()
		return false
	}
}

// NewScheduler returns a scheduler with the given configuration.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Workers
	}
	s := &Scheduler{cfg: cfg, now: time.Now, afterFunc: func(d time.Duration, f func()) func() bool {
		return time.AfterFunc(d, f).Stop
	}}
	if cfg.Window <= 0 {
		// Adaptive: cap at the old static default — scaled up when an
		// explicit batch needs the headroom to keep every worker holding
		// a full span — with a floor near 2×Workers so the pool never
		// starves.
		s.adaptive = true
		s.steadyWindow = max(4*cfg.Workers, 64)
		if cfg.Batch > 0 {
			s.steadyWindow = max(s.steadyWindow, 2*cfg.Batch*cfg.Workers)
		}
		s.maxWindow = s.steadyWindow
		if cfg.Retries > 0 && cfg.Backoff > 0 {
			s.maxWindow = max(s.maxWindow, retryWindow)
		}
	} else {
		if cfg.Window < cfg.Workers {
			cfg.Window = cfg.Workers // never starve the pool
			s.cfg.Window = cfg.Window
		}
		s.steadyWindow, s.maxWindow = cfg.Window, cfg.Window
	}
	return s
}

// Workers returns the effective pool size.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// MaxWindow returns the largest value the dispatch window can take during
// a run, retry widening included: callers that keep per-index state until
// emit (re-sequencing rings, pre-encoded batch slots) can size a ring of
// exactly this many entries and never collide.
func (s *Scheduler) MaxWindow() int { return s.maxWindow }

// spanSizeFor returns the dispatch span size for a run of n jobs: the
// configured batch (capped at the window, the progress invariant), or an
// adaptive default sized so a window's worth of spans keeps every worker
// busy; always 1 under rate limiting so the token bucket paces individual
// launches. Spans are sized against the steady window, so retry widening
// never changes how work is sliced.
func (s *Scheduler) spanSizeFor(n int) int {
	if s.cfg.RatePerSec > 0 {
		return 1
	}
	size := s.cfg.Batch
	if size <= 0 {
		// Adaptive: big enough to amortize the per-span bookkeeping,
		// small enough that a run splits into several spans per worker
		// (tail balance) and the window never idles the pool.
		size = min(n/(2*s.cfg.Workers), s.steadyWindow/s.cfg.Workers)
	}
	return clampInt(size, 1, s.steadyWindow)
}

// span is one claimed slice of the index range.
type span struct{ lo, hi int }

// spanState is a worker's place in a span: the next index to run, that
// index's attempt number and the backoff its next failure waits. A parked
// span also carries the time its backoff ends.
type spanState struct {
	span
	i, attempt int
	backoff    time.Duration
	due        time.Time
}

// gate enforces the dispatch window and holds the spans parked on a retry
// backoff. A worker may run index i only once i < frontier+window. The
// fast path is two atomic loads; workers park on the condition variable
// only when the window is actually exhausted, and a parked retry falling
// due wakes them through a timer.
//
// The hot atomics are padded onto their own cache lines: every worker
// reads frontier and window before every job while the collector stores
// them after every span, and the claim cursor (dispatchState) is hammered
// by CAS from all workers — sharing a line between any of these (or with
// the mutex word) would turn each store into a fleet-wide invalidation.
type gate struct {
	_        [64]byte
	frontier atomic.Int64 // next index to emit (all before are emitted)
	_        [56]byte
	window   atomic.Int64
	_        [56]byte
	// nparked mirrors len(parked), so workers between spans skip the lock
	// when no retry is parked.
	nparked atomic.Int64
	_       [56]byte

	mu      sync.Mutex
	cond    *sync.Cond
	waiting int
	stopped bool

	// steady is the window the collector last published; wide replaces it
	// while any span is parked.
	steady, wide int64
	// parked holds the spans waiting out a retry backoff. timer, when
	// armed, fires at timerDue, the earliest due time still ahead;
	// timerGen tells a superseded timer's firing from the armed one's.
	parked   []spanState
	timer    func() bool
	timerDue time.Time
	timerGen uint64

	// obs records stall and retry telemetry on the slow paths only; the
	// two-atomic-load fast path never touches it.
	obs       *obs.Scheduler
	now       func() time.Time
	afterFunc func(time.Duration, func()) func() bool
}

// dispatchState holds the shared claim cursor on its own cache line.
type dispatchState struct {
	_      [64]byte
	cursor atomic.Int64
	_      [56]byte
}

func newGate(s *Scheduler, start, window int) *gate {
	g := &gate{steady: int64(window), wide: int64(s.maxWindow),
		obs: s.cfg.Obs, now: s.now, afterFunc: s.afterFunc}
	g.frontier.Store(int64(start))
	g.window.Store(int64(window))
	g.cond = sync.NewCond(&g.mu)
	return g
}

// wait blocks until index may run (ok). A parked span falling due while it
// waits is handed out instead (retry), for the caller to run before it
// waits again. ok is false once the run stops.
func (g *gate) wait(index int) (due spanState, retry, ok bool) {
	if int64(index) < g.frontier.Load()+g.window.Load() {
		return spanState{}, false, true
	}
	var parkedAt time.Time
	g.mu.Lock()
	for int64(index) >= g.frontier.Load()+g.window.Load() && !g.stopped {
		if due, retry = g.popDueLocked(); retry {
			break
		}
		if g.obs != nil && parkedAt.IsZero() {
			parkedAt = g.now()
			g.obs.WindowStalls.Inc()
		}
		g.waiting++
		g.cond.Wait()
		g.waiting--
	}
	stopped := g.stopped
	g.mu.Unlock()
	if !parkedAt.IsZero() {
		g.obs.WindowStallNanos.AddInt(g.now().Sub(parkedAt).Nanoseconds())
	}
	return due, retry, !stopped
}

// takeDue removes and returns a parked span whose backoff has passed. With
// block set it waits for one while any span is parked; ok is false when
// none is taken.
func (g *gate) takeDue(block bool) (due spanState, ok bool) {
	if !block && g.nparked.Load() == 0 {
		return spanState{}, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.stopped {
		if due, ok = g.popDueLocked(); ok || !block || len(g.parked) == 0 {
			return due, ok
		}
		g.waiting++
		g.cond.Wait()
		g.waiting--
	}
	return spanState{}, false
}

// popDueLocked removes the due parked span nearest the emit frontier and
// returns it ready to resume: its next failure waits twice as long.
func (g *gate) popDueLocked() (spanState, bool) {
	now := g.now()
	at := -1
	for k, p := range g.parked {
		if !p.due.After(now) && (at < 0 || p.lo < g.parked[at].lo) {
			at = k
		}
	}
	if at < 0 {
		return spanState{}, false
	}
	p := g.parked[at]
	g.parked = append(g.parked[:at], g.parked[at+1:]...)
	g.nparked.Store(int64(len(g.parked)))
	if g.obs != nil {
		g.obs.BackoffNanos.AddInt(p.backoff.Nanoseconds())
	}
	p.backoff *= 2
	return p, true
}

// park queues st until due and opens the window while any span is parked,
// so the pool keeps working past the stalled frontier. A stopped run drops
// the span.
func (g *gate) park(st spanState, due time.Time) {
	st.due = due
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopped {
		return
	}
	g.parked = append(g.parked, st)
	g.nparked.Store(int64(len(g.parked)))
	if g.obs != nil {
		g.obs.PeakParked.SetMax(int64(len(g.parked)))
	}
	g.window.Store(g.wide)
	g.armLocked()
	g.cond.Broadcast()
}

// armLocked makes sure a timer fires when the earliest parked span not yet
// due falls due. Spans already due need none: workers take them between
// spans or from wait.
func (g *gate) armLocked() {
	now := g.now()
	var next time.Time
	for _, p := range g.parked {
		if p.due.After(now) && (next.IsZero() || p.due.Before(next)) {
			next = p.due
		}
	}
	if next.IsZero() || (g.timer != nil && !next.Before(g.timerDue)) {
		return
	}
	if g.timer != nil {
		g.timer()
	}
	g.timerGen++
	gen := g.timerGen
	g.timerDue = next
	g.timer = g.afterFunc(next.Sub(now), func() { g.kick(gen) })
}

// kick wakes every waiting worker to take the span that fell due, and arms
// the timer for the next one.
func (g *gate) kick(gen uint64) {
	g.mu.Lock()
	if gen == g.timerGen {
		g.timer = nil
	}
	if !g.stopped {
		g.cond.Broadcast()
		g.armLocked()
	}
	g.mu.Unlock()
}

// advance publishes a new frontier and steady window, waking parked
// workers when any are waiting. The window stays wide while a span is
// parked.
func (g *gate) advance(frontier, window int) {
	g.mu.Lock()
	g.frontier.Store(int64(frontier))
	g.steady = int64(window)
	if len(g.parked) == 0 {
		g.window.Store(g.steady)
	}
	if g.waiting > 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// stop releases every waiting worker with a failure indication and
// cancels the backoff timer.
func (g *gate) stop() {
	g.mu.Lock()
	g.stopped = true
	if g.timer != nil {
		g.timer()
		g.timer = nil
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// RunSpans executes jobs for indices [start, end): workers claim
// contiguous index spans off a shared cursor, and emitSpan is called
// serially with each completed span in ascending index order (spans
// partition [start,end), so consecutive calls are contiguous). job is
// called as job(worker, index, attempt); a non-nil return triggers a retry
// after backoff, up to the configured retry budget, after which the index
// counts as done regardless (the job records its own terminal error). A
// failed attempt parks its span for the backoff and the worker takes other
// work meanwhile. begin (optional) is called on a worker whenever it
// attaches to a span: once when it claims the span, and again each time a
// worker resumes the span after a retry backoff or returns to it after
// running a resumed one. Callers use it to select per-span state such as
// encode buffers. An emitSpan error cancels the run and is returned.
func (s *Scheduler) RunSpans(start, end int,
	begin func(worker, lo, hi int),
	job func(worker, index, attempt int) error,
	emitSpan func(lo, hi int) error,
) error {
	if start >= end {
		return nil
	}
	spanSize := s.spanSizeFor(end - start)
	window := s.steadyWindow
	minWindow := window
	if s.adaptive {
		// A window below a full round of spans would idle workers
		// regardless of spread; start there and grow on evidence.
		minWindow = min(max(2*s.cfg.Workers, 16, spanSize*s.cfg.Workers), s.steadyWindow)
		window = minWindow
	}

	g := newGate(s, start, window)
	ds := &dispatchState{}
	cursor := &ds.cursor
	cursor.Store(int64(start))
	stop := make(chan struct{})
	p := &pool{
		s:       s,
		g:       g,
		limiter: newTokenBucket(s.cfg.RatePerSec, float64(s.cfg.Burst), s.now),
		stop:    stop,
		done:    make(chan span, s.cfg.Workers),
		begin:   begin,
		job:     job,
	}
	var stopOnce sync.Once
	cancel := func() {
		stopOnce.Do(func() {
			close(stop)
			g.stop()
		})
	}

	claim := func() (span, bool) {
		select {
		case <-s.cfg.Quiesce:
			return span{}, false // draining: finish in-flight spans only
		default:
		}
		for {
			lo := cursor.Load()
			if lo >= int64(end) {
				return span{}, false
			}
			hi := lo + int64(spanSize)
			// Shrink near the tail so the last few spans spread over
			// the pool instead of parking on one worker.
			if remaining := int64(end) - lo; remaining < int64(spanSize*s.cfg.Workers) {
				hi = lo + max(remaining/int64(s.cfg.Workers), 1)
			}
			hi = min(hi, int64(end))
			if cursor.CompareAndSwap(lo, hi) {
				if s.cfg.Obs != nil {
					s.cfg.Obs.SpanClaims.Inc()
				}
				return span{int(lo), int(hi)}, true
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Parked retries come first: they sit nearest the emit
				// frontier. With nothing left to claim, a worker stays
				// while spans are parked, to resume them when due.
				st, ok := g.takeDue(false)
				if !ok {
					if sp, claimed := claim(); claimed {
						st = spanState{span: sp, i: sp.lo, backoff: s.cfg.Backoff}
					} else if st, ok = g.takeDue(true); !ok {
						return
					}
				}
				if !p.runSpan(worker, st) {
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(p.done)
	}()

	// Re-sequence completions: workers finish spans in arbitrary order,
	// sinks must see index order. Spans partition the range, so a small
	// list ordered by lo (at most window/spanSize + workers entries)
	// re-sequences them; the gate caps how far execution runs ahead, so
	// the list — and any per-index state the caller retains until emit —
	// stays bounded for any campaign size.
	var pending []span
	next := start
	var emitErr error
	// spreadEwma tracks how far beyond the frontier completed spans land,
	// the dispersion the adaptive window sizes against; buffered counts
	// the completed indices waiting in pending.
	var spreadEwma float64
	buffered := 0
	for sp := range p.done {
		// Insert keeping pending sorted by lo.
		at := len(pending)
		for i, q := range pending {
			if sp.lo < q.lo {
				at = i
				break
			}
		}
		pending = append(pending, span{})
		copy(pending[at+1:], pending[at:])
		pending[at] = sp
		buffered += sp.hi - sp.lo
		if s.cfg.Obs != nil {
			s.cfg.Obs.PeakUnemitted.SetMax(int64(buffered))
		}

		if s.adaptive {
			spread := float64(sp.hi - next)
			spreadEwma += 0.125 * (spread - spreadEwma)
		}

		advanced := false
		for emitErr == nil && len(pending) > 0 && pending[0].lo == next {
			q := pending[0]
			pending = pending[:copy(pending, pending[1:])]
			if err := emitSpan(q.lo, q.hi); err != nil {
				emitErr = err
				cancel()
				break
			}
			next = q.hi
			buffered -= q.hi - q.lo
			advanced = true
		}
		if advanced && emitErr == nil {
			if s.adaptive {
				window = clampInt(s.cfg.Workers+2*int(spreadEwma), minWindow, s.steadyWindow)
			}
			g.advance(next, window)
		}
	}
	cancel()
	return emitErr
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// pool is the worker side of one RunSpans call.
type pool struct {
	s       *Scheduler
	g       *gate
	limiter *tokenBucket
	stop    chan struct{}
	done    chan span
	begin   func(worker, lo, hi int)
	job     func(worker, index, attempt int) error
}

// runSpan attaches worker to st's span and runs it from st.i until the
// span completes, reported on done, or an attempt fails with a retry left,
// which parks the span for its backoff. It returns false once the run
// stops. Rate-limit waits abort when stop closes, so a cancelled run (emit
// failure) is not held hostage by slow politeness timers.
func (p *pool) runSpan(worker int, st spanState) bool {
	if p.begin != nil {
		p.begin(worker, st.lo, st.hi)
	}
	for st.i < st.hi {
		due, retry, ok := p.g.wait(st.i)
		if !ok {
			return false
		}
		if retry {
			// A parked span fell due while this one waited on the
			// window: resume it here, then return to this span.
			if !p.runSpan(worker, due) {
				return false
			}
			if p.begin != nil {
				p.begin(worker, st.lo, st.hi)
			}
			continue
		}
		if !p.limiter.take(p.s, p.stop) {
			return false
		}
		if err := p.job(worker, st.i, st.attempt); err != nil && st.attempt < p.s.cfg.Retries {
			if p.s.cfg.Obs != nil {
				p.s.cfg.Obs.Retries.Inc()
			}
			st.attempt++
			p.g.park(st, p.s.now().Add(st.backoff))
			return true
		}
		st.i++
		st.attempt, st.backoff = 0, p.s.cfg.Backoff
		select {
		case <-p.stop:
			return false
		default:
		}
	}
	select {
	case p.done <- st.span:
		return true
	case <-p.stop:
		return false
	}
}

// tokenBucket is a blocking wall-clock rate limiter.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables limiting
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate, burst float64, now func() time.Time) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now(), now: now}
}

// take blocks until a token is available, waiting through the
// scheduler's interruptible sleep; it returns false if stop closed
// before a token arrived. A nil bucket always succeeds immediately.
func (tb *tokenBucket) take(s *Scheduler, stop <-chan struct{}) bool {
	if tb == nil {
		return true
	}
	for {
		tb.mu.Lock()
		now := tb.now()
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
		if tb.tokens >= 1 {
			tb.tokens--
			tb.mu.Unlock()
			return true
		}
		wait := time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
		tb.mu.Unlock()
		if !s.sleepStop(wait, stop) {
			return false
		}
		if s.cfg.Obs != nil {
			s.cfg.Obs.RateWaitNanos.AddInt(wait.Nanoseconds())
		}
	}
}
