// Package sim provides a deterministic discrete-event simulation engine.
//
// Every component of the MittOS reproduction — disks, SSDs, the page cache,
// IO schedulers, the network, noisy neighbors, and NoSQL clients — runs in
// virtual time on top of this engine. Virtual time makes every experiment
// exactly reproducible: the same seed yields the same latency tables, which
// is essential both for the test suite and for regenerating the paper's
// figures without testbed noise.
//
// The engine is intentionally single-threaded. Events execute in
// (time, sequence) order; ties in time break by scheduling order, so the
// simulation is a total order and there are no data races by construction.
// (Different Engines are fully independent and may run on different
// goroutines; see internal/experiments for the parallel runner that
// exploits this.)
//
// The event loop is the floor under every experiment's wall-clock time, so
// it is built to allocate nothing in steady state: the event queue is a
// hierarchical timing wheel (see wheel.go) with O(1) amortized schedule,
// O(1) cancel by intrusive unlink, and a fast-forward that jumps the clock
// to the next occupied slot; events scheduled through the fire-and-forget
// After/FireAt path are recycled through an engine-owned freelist.
// Schedule/At return a cancellation handle and therefore pin their Event
// for the engine's lifetime; hot paths that never cancel should prefer
// After.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It deliberately mirrors time.Duration's resolution so model
// constants can be written as time.Duration literals.
type Time int64

// Duration aliases time.Duration for readability at call sites.
type Duration = time.Duration

// Common durations used by device models.
const (
	Microsecond = Time(time.Microsecond)
	Millisecond = Time(time.Millisecond)
	Second      = Time(time.Second)
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// MinTime is the smallest representable virtual time.
const MinTime = Time(math.MinInt64)

// Add returns t shifted by d. It saturates in both directions: at MaxTime
// on positive overflow and at MinTime on negative overflow (a silent
// negative wrap would leap a deadline into the far future).
func (t Time) Add(d Duration) Time {
	s := t + Time(d)
	if d > 0 && s < t {
		return MaxTime
	}
	if d < 0 && s > t {
		return MinTime
	}
	return s
}

// Sub returns the duration t−u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Duration converts the absolute time into a duration since time zero.
func (t Time) Duration() Duration { return Duration(t) }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. Events are returned by the Schedule family
// so callers can cancel them (e.g. a hedged request cancelling its timeout
// when the first reply wins). Events scheduled via After/FireAt are owned
// by the engine and recycled once fired; no handle is exposed for them.
type Event struct {
	at         Time
	seq        uint64
	fn         func()
	eng        *Engine
	prev, next *Event // intrusive links within the event's wheel-slot list
	qlevel     int16  // wheel level, overflowLevel, or unqueuedLevel
	qslot      int16  // slot index within qlevel
	owned      bool   // engine-owned (After/FireAt): recycled after firing
	cancelled  bool
}

// Time reports when the event fires.
func (e *Event) Time() Time { return e.at }

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancelled }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. The event is unlinked from its wheel
// slot immediately — O(1), no tombstones left behind and no compaction
// sweeps, which is what makes cancel-heavy strategies (hedged timeouts,
// MittCFQ bumped entries) cheap.
func (e *Event) Cancel() {
	if e.cancelled || e.fn == nil {
		// Already cancelled, or already fired (fn is cleared at fire time).
		return
	}
	e.cancelled = true
	e.fn = nil
	eng := e.eng
	eng.unlink(e)
	eng.nLive--
	eng.cancelledTotal++
	if eng.cachedMin == e {
		eng.cachedMin = nil
	}
}

// Engine is the event loop. The zero value is not usable; use NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	free   []*Event // recycled engine-owned events
	nLive  int      // scheduled, not-yet-cancelled events
	fired  uint64
	halted bool

	// The hierarchical timing wheel (see wheel.go).
	wheel     [wheelLevels][wheelSlots]evList
	occ       [wheelLevels][wheelWords]uint64 // per-level slot-occupancy bitmaps
	lvlN      [wheelLevels]int                // live events per level (skip empty levels)
	overflow  evList                          // events beyond the wheel horizon
	topRot    uint64                          // now >> wheelHorizonShift as of the last advance
	solo      *Event                          // sole live event, parked unplaced (fast path)
	cachedMin *Event                          // memoized findMin result, nil when stale

	// Cumulative diagnostics surfaced by Stats.
	cancelledTotal uint64
	cascades       uint64
	maxSlot        int
	maxPending     int
}

// EngineStats is a point-in-time summary of engine activity, exposed so the
// metrics layer can report event-loop health (cascade churn, slot hot
// spots, overflow parking) alongside IO-level numbers. All counters are
// cumulative since NewEngine.
type EngineStats struct {
	Now        Time   `json:"now_ns"`       // current virtual time
	Fired      uint64 `json:"fired"`        // events executed
	Scheduled  uint64 `json:"scheduled"`    // events ever posted
	Cancelled  uint64 `json:"cancelled"`    // events cancelled before firing
	Cascades   uint64 `json:"cascades"`     // events redistributed down a wheel level
	Pending    int    `json:"pending"`      // live events still queued
	MaxPending int    `json:"max_pending"`  // high-water live events queued
	MaxSlot    int    `json:"max_slot"`     // high-water single-slot occupancy
	Overflow   int    `json:"overflow_len"` // events currently parked beyond the horizon
	FreeList   int    `json:"freelist_len"` // recycled events currently parked
}

// Stats snapshots the engine's diagnostic counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Now:        e.now,
		Fired:      e.fired,
		Scheduled:  e.seq,
		Cancelled:  e.cancelledTotal,
		Cascades:   e.cascades,
		Pending:    e.nLive,
		MaxPending: e.maxPending,
		MaxSlot:    e.maxSlot,
		Overflow:   int(e.overflow.n),
		FreeList:   len(e.free),
	}
}

// NewEngine returns an engine positioned at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (diagnostics).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not-cancelled events.
func (e *Engine) Pending() int { return e.nLive }

// Schedule runs fn after delay d and returns a cancellation handle. A
// negative delay is treated as zero: the event fires "now", after any
// events already scheduled for the current instant (FIFO within a
// timestamp).
func (e *Engine) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At runs fn at absolute virtual time t and returns a cancellation handle.
// Scheduling in the past is clamped to the present.
func (e *Engine) At(t Time, fn func()) *Event {
	return e.post(t, fn, false)
}

// After runs fn after delay d, fire-and-forget: no cancellation handle is
// returned, which lets the engine recycle the event through its freelist.
// Steady-state scheduling through After allocates nothing. It is the right
// call for device models, network hops, and every other hot path that
// never cancels.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.post(e.now.Add(d), fn, true)
}

// FireAt is the absolute-time form of After: fire-and-forget at virtual
// time t, clamped to the present.
func (e *Engine) FireAt(t Time, fn func()) {
	e.post(t, fn, true)
}

// post enqueues fn at time t. Owned events come from — and return to — the
// engine's freelist; handle-returning events are allocated fresh and never
// recycled, so a caller-held *Event can never alias a later event.
func (e *Engine) post(t Time, fn func(), owned bool) *Event {
	if fn == nil {
		panic("sim: schedule called with nil callback")
	}
	if t < e.now {
		t = e.now
	}
	var ev *Event
	if n := len(e.free); owned && n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{eng: e}
	}
	ev.at, ev.seq, ev.fn, ev.owned, ev.cancelled = t, e.seq, fn, owned, false
	e.seq++
	if e.nLive == 0 {
		// Solo fast path: the queue's only event skips the wheel entirely
		// and waits in e.solo until it fires, is cancelled, or company
		// arrives.
		ev.qlevel = soloLevel
		e.solo = ev
		e.cachedMin = ev
		e.nLive = 1
		if e.maxPending == 0 {
			e.maxPending = 1
		}
		return ev
	}
	if s := e.solo; s != nil {
		// Second arrival: hang the parked event on the wheel before placing
		// the newcomer. s.at ≥ now still holds (it has not fired), so the
		// placement invariants are intact.
		e.solo = nil
		s.qlevel = unqueuedLevel
		e.place(s)
	}
	e.place(ev)
	e.nLive++
	if e.nLive > e.maxPending {
		e.maxPending = e.nLive
	}
	// Keep the memoized minimum exact: a strictly earlier arrival takes it
	// over (on a time tie the incumbent's smaller seq wins).
	if m := e.cachedMin; m != nil && t < m.at {
		e.cachedMin = ev
	}
	return ev
}

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	ev := e.findMin()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run executes events until the queue drains or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted {
		ev := e.findMin()
		if ev == nil {
			return
		}
		e.fire(ev)
	}
}

// RunUntil executes events with timestamps ≤ t, then sets the clock to t
// (if the clock has not already passed it). Events scheduled exactly at t
// do run. If Halt stops the run while due events remain queued, the clock
// stays where the halt left it — the pending events must remain ahead of
// the clock (a queued event behind the wheel's cursor would strand its
// slot) — and a later Run/RunUntil resumes from there.
func (e *Engine) RunUntil(t Time) {
	e.halted = false
	for !e.halted {
		ev := e.findMin()
		if ev == nil || ev.at > t {
			break
		}
		e.fire(ev)
	}
	if e.now < t {
		if ev := e.findMin(); ev == nil || ev.at > t {
			e.setNow(t)
		}
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Halt stops Run/RunUntil after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// Reset returns the engine to its NewEngine state — virtual time zero,
// sequence zero, empty queue — while keeping the event freelist (the wheel's
// slot arrays are fixed-size engine fields), so a reused engine schedules
// without reallocating. Pending owned events are recycled; pending
// handle-returning events are dropped (their handles stay valid but inert:
// already marked cancelled). A reset engine is indistinguishable from a
// fresh one to the simulation — the (time, seq) order restarts from zero,
// which is what keeps reused-arena runs byte-identical to fresh-heap runs.
func (e *Engine) Reset() {
	for lvl := range e.wheel {
		if e.lvlN[lvl] == 0 {
			continue
		}
		for s := range e.wheel[lvl] {
			for ev := e.wheel[lvl][s].head; ev != nil; {
				next := ev.next
				e.dropEvent(ev)
				ev = next
			}
			e.wheel[lvl][s] = evList{}
		}
		e.lvlN[lvl] = 0
	}
	for ev := e.overflow.head; ev != nil; {
		next := ev.next
		e.dropEvent(ev)
		ev = next
	}
	e.overflow = evList{}
	e.occ = [wheelLevels][wheelWords]uint64{}
	if e.solo != nil {
		e.dropEvent(e.solo)
		e.solo = nil
	}
	e.cachedMin = nil
	e.topRot = 0
	e.now, e.seq, e.fired = 0, 0, 0
	e.nLive = 0
	e.halted = false
	e.cancelledTotal, e.cascades, e.maxSlot, e.maxPending = 0, 0, 0, 0
}

// dropEvent neutralizes one queued event during Reset: handles turn inert
// (cancelled), owned events return to the freelist.
func (e *Engine) dropEvent(ev *Event) {
	ev.fn = nil
	ev.cancelled = true
	ev.prev, ev.next = nil, nil
	ev.qlevel = unqueuedLevel
	if ev.owned {
		e.free = append(e.free, ev)
	}
}

// String summarizes engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v pending=%d fired=%d}", e.now, e.nLive, e.fired)
}

// Ticker repeatedly invokes fn every period until Stop is called. It is the
// virtual-time analogue of time.Ticker and is used by probe loops and noise
// generators.
type Ticker struct {
	e      *Engine
	period Duration
	fn     func()
	tick   func() // the single re-armed closure, built once in NewTicker
	ev     *Event
	stop   bool
}

// NewTicker schedules fn every period, with the first firing after period.
// A non-positive period panics: a zero-period ticker would live-lock the
// event loop.
func (e *Engine) NewTicker(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker requires a positive period")
	}
	t := &Ticker{e: e, period: period, fn: fn}
	t.tick = func() {
		if t.stop {
			return
		}
		t.fn()
		if !t.stop {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.e.Schedule(t.period, t.tick)
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stop = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}
