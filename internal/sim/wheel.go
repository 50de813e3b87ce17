package sim

import "math/bits"

// The engine's event queue is a hierarchical timing wheel (Varghese &
// Lauck), replacing the earlier hand-specialized binary min-heap (retained
// in heaporacle_test.go as the differential-testing oracle and benchmark
// baseline).
//
// Layout: wheelLevels levels of wheelSlots slots each. A slot at level k
// spans 256^k ns, so level 0 resolves exact nanoseconds, level 1 spans
// 256 ns per slot, and so on up to level 5 (2^40 ns ≈ 18 min per slot);
// the whole wheel covers 2^48 ns ≈ 3.3 days of virtual time ahead of the
// clock. An event at absolute time t is hung on the lowest level whose
// current rotation contains t — equivalently, the level of the highest
// base-256 digit in which t and now differ. Events further out than the
// top level's rotation (notably saturating MaxTime deadlines) park on an
// unsorted overflow list until the clock enters their 2^48 ns superslot.
//
// Because placement requires t's digits above the event's level to equal
// now's, a level's occupied slots always sit at or after its cursor (the
// digit of now at that level): there are no wrapped slots, and scanning a
// level's occupancy bitmap from the cursor finds its earliest slot.
//
// Cascading: when the cursor digit at level k reaches an occupied slot,
// that slot's events are redistributed — each lands at a strictly lower
// level, so an event cascades at most wheelLevels-1 times in its life and
// schedule/cancel/fire are all O(1) amortized. Cancel is an intrusive
// unlink from the event's doubly-linked slot list: no tombstones, no
// compaction sweeps.
//
// Determinism: events must fire in exactly the (time, seq) total order the
// heap produced — FIFO within a timestamp. Within one rotation a level-0
// slot holds only events of a single exact timestamp, so it suffices to
// keep level-0 lists sorted by seq: direct posts carry the largest seq yet
// issued and append in one compare, and the rare cascade or overflow
// promotion into level 0 insertion-sorts backward from the tail. Levels
// ≥ 1 stay unordered; their minimum is found by list scan exactly once per
// slot activation, after which the slot cascades and the cost is not paid
// again.
//
// Solo fast path: a post into an empty queue parks the event unplaced in
// Engine.solo (qlevel == soloLevel) instead of hanging it on the wheel —
// the common "next timer" case, e.g. a device model's single in-flight
// completion, costs no slot, bitmap, or cascade work at all. The parked
// event is placed normally the moment a second event arrives.
const (
	wheelBits  = 8
	wheelSlots = 1 << wheelBits // 256 slots per level
	wheelMask  = wheelSlots - 1
	// wheelLevels bounds the horizon at 2^(8·6) = 2^48 ns ≈ 3.3 days of
	// virtual time — far past any experiment leg, so in practice only
	// saturating MaxTime deadlines overflow.
	wheelLevels       = 6
	wheelWords        = wheelSlots / 64         // occupancy-bitmap words per level
	wheelHorizonShift = wheelBits * wheelLevels // 48
	overflowLevel     = int16(wheelLevels)      // Event.qlevel: parked on the overflow list
	unqueuedLevel     = int16(-1)               // Event.qlevel: not in the queue
	soloLevel         = int16(-2)               // Event.qlevel: parked in Engine.solo, unplaced
)

// evList is one slot's intrusive doubly-linked event list (also the shape
// of the overflow list). n is the occupancy, kept for the max-slot stat
// and for O(1) cascade accounting.
type evList struct {
	head, tail *Event
	n          int32
}

// pushBack appends ev. For direct posts this preserves level-0 seq order
// for free: a fresh event's seq exceeds every queued event's.
func (l *evList) pushBack(ev *Event) {
	ev.prev = l.tail
	ev.next = nil
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
	l.n++
}

// insertBySeq inserts ev into a seq-sorted list, walking backward from the
// tail. Only cascades and overflow promotions into level 0 ever walk;
// their re-inserted events are few and slots are shallow.
func (l *evList) insertBySeq(ev *Event) {
	after := l.tail
	for after != nil && after.seq > ev.seq {
		after = after.prev
	}
	if after == nil {
		ev.prev, ev.next = nil, l.head
		if l.head == nil {
			l.tail = ev
		} else {
			l.head.prev = ev
		}
		l.head = ev
	} else {
		ev.prev, ev.next = after, after.next
		if after.next == nil {
			l.tail = ev
		} else {
			after.next.prev = ev
		}
		after.next = ev
	}
	l.n++
}

// remove unlinks ev in O(1).
func (l *evList) remove(ev *Event) {
	if ev.prev == nil {
		l.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		l.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	ev.prev, ev.next = nil, nil
	l.n--
}

// minEvent scans for the (time, seq) minimum. Used on level ≥ 1 slots and
// the overflow list, which are not time-ordered; each such slot is scanned
// at most once before it cascades, so the cost amortizes away.
func (l *evList) minEvent() *Event {
	best := l.head
	for ev := best.next; ev != nil; ev = ev.next {
		if ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
			best = ev
		}
	}
	return best
}

// place hangs ev (at, seq already set) on the wheel or the overflow list.
func (e *Engine) place(ev *Event) {
	t := ev.at
	// The level is the highest base-256 digit where t and now differ; the
	// xor localizes it without a division or loop.
	x := uint64(t) ^ uint64(e.now)
	lvl := 0
	if x != 0 {
		lvl = (bits.Len64(x) - 1) >> 3
	}
	if lvl >= wheelLevels {
		// Beyond the top level's rotation — typically a saturating MaxTime
		// deadline. Park until the clock enters the event's superslot.
		ev.qlevel, ev.qslot = overflowLevel, 0
		e.overflow.pushBack(ev)
		return
	}
	s := int(uint64(t)>>(uint(lvl)*wheelBits)) & wheelMask
	ev.qlevel, ev.qslot = int16(lvl), int16(s)
	l := &e.wheel[lvl][s]
	if lvl == 0 && l.tail != nil && l.tail.seq > ev.seq {
		// A cascade or promotion delivering an older event into a slot that
		// already holds a newer one: keep the list seq-sorted so FIFO within
		// the timestamp survives.
		l.insertBySeq(ev)
	} else {
		l.pushBack(ev)
	}
	e.occ[lvl][s>>6] |= 1 << (uint(s) & 63)
	e.lvlN[lvl]++
	if int(l.n) > e.maxSlot {
		e.maxSlot = int(l.n)
	}
}

// unlink removes ev from whichever list holds it, clearing the occupancy
// bit when its slot empties. O(1): this is what makes Cancel cheap.
func (e *Engine) unlink(ev *Event) {
	if ev.qlevel == soloLevel {
		e.solo = nil
		ev.qlevel = unqueuedLevel
		return
	}
	if ev.qlevel == overflowLevel {
		e.overflow.remove(ev)
	} else {
		lvl, s := int(ev.qlevel), int(ev.qslot)
		l := &e.wheel[lvl][s]
		l.remove(ev)
		if l.head == nil {
			e.occ[lvl][s>>6] &^= 1 << (uint(s) & 63)
		}
		e.lvlN[lvl]--
	}
	ev.qlevel = unqueuedLevel
}

// cascadeSlot redistributes one cursor slot's events downward. Every event
// lands at a strictly lower level (its digits at and above lvl now match
// now's), so cascading cannot loop and each event moves at most
// wheelLevels-1 times over its lifetime.
func (e *Engine) cascadeSlot(lvl, s int) {
	l := &e.wheel[lvl][s]
	ev := l.head
	moved := l.n
	l.head, l.tail, l.n = nil, nil, 0
	e.occ[lvl][s>>6] &^= 1 << (uint(s) & 63)
	e.lvlN[lvl] -= int(moved)
	e.cascades += uint64(moved)
	for ev != nil {
		next := ev.next
		ev.prev, ev.next = nil, nil
		e.place(ev)
		ev = next
	}
}

// scanOcc returns the first occupied slot ≥ from at the given level. The
// caller guarantees the level is nonempty; since occupied slots never sit
// before the cursor, the scan cannot miss.
func (e *Engine) scanOcc(lvl, from int) int {
	w := from >> 6
	word := e.occ[lvl][w] &^ (1<<uint(from&63) - 1)
	for word == 0 {
		w++
		word = e.occ[lvl][w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// findMin returns the queue's (time, seq)-minimum event without advancing
// the clock, cascading any due cursor slots along the way. The result is
// cached so a peek (RunUntil's bound check) and the fire that follows pay
// for one search.
func (e *Engine) findMin() *Event {
	if e.cachedMin != nil {
		return e.cachedMin
	}
	if e.nLive == 0 {
		return nil
	}
	// Bring events whose slot range contains the present down toward level
	// 0. Top-down, so a cascade landing in a lower cursor slot is picked up
	// by the next iteration.
	for lvl := wheelLevels - 1; lvl >= 1; lvl-- {
		if e.lvlN[lvl] == 0 {
			continue
		}
		c := int(uint64(e.now)>>(uint(lvl)*wheelBits)) & wheelMask
		if e.wheel[lvl][c].head != nil {
			e.cascadeSlot(lvl, c)
		}
	}
	// After the pass no cursor slot at level ≥ 1 is occupied, so the first
	// occupied slot at the lowest nonempty level bounds every other level's
	// events from below — and within one rotation a level-0 slot holds a
	// single exact timestamp, seq-sorted, so its head is the minimum.
	var min *Event
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if e.lvlN[lvl] == 0 {
			continue
		}
		c := int(uint64(e.now)>>(uint(lvl)*wheelBits)) & wheelMask
		l := &e.wheel[lvl][e.scanOcc(lvl, c)]
		if lvl == 0 {
			min = l.head
		} else {
			min = l.minEvent()
		}
		break
	}
	if min == nil {
		// Wheel empty but live events remain: they are all parked beyond
		// the horizon. Rare (an experiment would need to idle for virtual
		// days, or drain MaxTime deadlines), so a list scan is fine.
		min = e.overflow.minEvent()
	}
	e.cachedMin = min
	return min
}

// fire unlinks ev, advances the clock to it, and runs its callback.
func (e *Engine) fire(ev *Event) {
	e.unlink(ev)
	e.cachedMin = nil
	e.nLive--
	if ev.at > e.now {
		e.setNow(ev.at)
	}
	fn := ev.fn
	ev.fn = nil
	if ev.owned {
		// Safe to recycle before running fn: the callback was extracted,
		// and no caller holds a pointer to an owned event.
		e.free = append(e.free, ev)
	}
	e.fired++
	fn()
}

// setNow advances the clock, promoting overflow events whose superslot has
// arrived. The clock never goes backward, so topRot only moves forward.
func (e *Engine) setNow(t Time) {
	e.now = t
	if uint64(t)>>wheelHorizonShift != e.topRot {
		e.topRot = uint64(t) >> wheelHorizonShift
		e.promoteOverflow()
	}
}

// promoteOverflow re-places parked events that now fall inside the wheel's
// horizon. Promotion happens only on a 2^48 ns superslot crossing.
func (e *Engine) promoteOverflow() {
	var next *Event
	for ev := e.overflow.head; ev != nil; ev = next {
		next = ev.next
		if uint64(ev.at)>>wheelHorizonShift == e.topRot {
			e.overflow.remove(ev)
			e.place(ev)
		}
	}
}
