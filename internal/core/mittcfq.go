package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// MittCFQ is MittOS integrated with the CFQ scheduler (§4.2).
//
// Admission is O(log P), not O(N): each process node carries its running
// predicted-total-IO time (slice-clamped) inside the scheduler's augmented
// service trees, so the wait estimate for an arriving IO is the device
// drain time plus one aggregate prefix query — see CFQ.AheadCharge.
//
// Because CFQ can accept an IO and later push it back behind
// newly-arriving higher-priority IOs, MittCFQ additionally maintains the
// paper's tolerable-time hash table: accepted deadline-carrying IOs are
// bucketed by how much extra delay they can still absorb (1ms buckets).
// When a higher-priority IO is admitted, affected entries are re-bucketed;
// entries whose tolerable time goes negative are cancelled out of the CFQ
// queues and their owners receive EBUSY. The table is allocation-free in
// steady state: entries are pooled, buckets are pooled intrusive rings,
// and the request→entry index is the request's SchedPriv back-pointer.
type MittCFQ struct {
	kernel
	sched *iosched.CFQ

	// mirror models the device-resident IOs (the dispatched quantum) with
	// the same SSTF replay MittNoop uses; CFQ-queued IOs are accounted via
	// the per-node totals instead.
	mirror *sstfMirror

	// Tolerable-time hash table: key = tolerable milliseconds. Each bucket
	// is an intrusive doubly-linked ring in insertion order; empty buckets
	// recycle through bktFree.
	buckets map[int64]*cfqBucket
	bktFree *cfqBucket
	// ordHead/ordTail is the insertion-ordered view of table entries.
	// Charging bumped entries must walk them in a deterministic order —
	// ranging over a map would randomize re-bucketing and cancellation
	// order and with it the simulation's event sequence.
	ordHead, ordTail *cfqEntry
	entryFree        *cfqEntry // pooled entries, chained via olNext
	victims          []*cfqEntry

	ops sim.Freelist[cfqOp]
}

// cfqOp is the pooled admission-side completion context. Until the IO
// dispatches it is reachable from the request via SchedPriv, so the drop
// and late-cancellation paths can reclaim it (and its entry) when the
// completion callback will never fire.
type cfqOp struct {
	m     *MittCFQ
	entry *cfqEntry
	verdict
	fn func(*blockio.Request) // pre-bound op.done
}

func (op *cfqOp) Bind() { op.fn = op.done }

func (op *cfqOp) done(r *blockio.Request) {
	m, entry, v := op.m, op.entry, op.verdict
	op.entry, op.verdict = nil, verdict{}
	m.ops.Release(op)
	if entry != nil {
		if entry.done {
			// Cancelled late; EBUSY already delivered. (The scheduler drops
			// cancelled IOs before dispatch, so this should not fire.)
			return
		}
		m.putEntry(entry)
	}
	m.complete(&v, r)
}

// unwind detaches op from a request that will never complete — dropped by
// the scheduler or cancelled late — restoring its previous completion hook
// and recycling the op.
func (m *MittCFQ) unwind(req *blockio.Request, op *cfqOp) {
	req.OnComplete = op.prev
	req.SchedPriv = nil
	op.entry, op.verdict = nil, verdict{}
	m.ops.Release(op)
}

// cfqEntry is one accepted, still-cancellable, deadline-carrying IO. It is
// pooled: alive from admission until its op completes, its request drops,
// or its late cancellation succeeds.
type cfqEntry struct {
	req       *blockio.Request
	op        *cfqOp
	tolerable time.Duration
	class     blockio.Class
	prio      int
	svc       time.Duration
	done      bool

	bkt            *cfqBucket // nil once off the table
	bkPrev, bkNext *cfqEntry  // bucket ring, insertion order
	olPrev, olNext *cfqEntry  // global insertion-order list
}

// cfqBucket is one 1ms tolerable-time bucket: an intrusive list head,
// recycled through the layer's bucket freelist when emptied.
type cfqBucket struct {
	key  int64
	head *cfqEntry
	tail *cfqEntry
	next *cfqBucket // freelist chain
}

// NewMittCFQ builds the layer over a CFQ scheduler and a disk profile.
func NewMittCFQ(eng *sim.Engine, sched *iosched.CFQ, prof *disk.Profile, opt Options) *MittCFQ {
	m := &MittCFQ{
		kernel:  newKernel(eng, metrics.RMittCFQ, opt),
		sched:   sched,
		mirror:  newSSTFMirror(eng, prof, opt.Calibrate),
		buckets: make(map[int64]*cfqBucket),
	}
	sched.SetDispatchHook(m.onDispatch)
	sched.SetDropHook(m.onDrop)
	return m
}

// Counts returns accepted / rejected-at-admission / late-cancelled totals.
func (m *MittCFQ) Counts() (accepted, rejected, cancelled uint64) {
	return m.accepted, m.rejected, m.cancelled
}

// PredictWait estimates the queueing delay an IO from proc at the given
// class would see right now: device drain + slice-clamped totals of nodes
// ahead (one augmented-tree query) + the proc's own queued IOs.
func (m *MittCFQ) PredictWait(proc int, class blockio.Class) time.Duration {
	return m.mirror.drainTime() + m.sched.AheadCharge(proc, class) + m.sched.ProcCharge(proc)
}

// SubmitSLO implements Target.
func (m *MittCFQ) SubmitSLO(req *blockio.Request, onDone func(error)) {
	svc := m.mirror.svcTime(m.mirror.headPos, req.Offset, req.Size)
	v, ok := m.admit(req, m.PredictWait(req.Proc, req.Class), svc, onDone)
	if !ok {
		return
	}
	m.sched.AddProcCharge(req.Proc, svc)

	op := sim.Acquire(&m.ops)
	op.m, op.verdict = m, v

	var entry *cfqEntry
	if v.hasSLO && !m.shadow {
		// Track the IO in the tolerable-time table until dispatch.
		entry = m.getEntry()
		entry.req, entry.op = req, op
		entry.tolerable = m.threshold(req.Deadline) - v.wait
		entry.class, entry.prio, entry.svc = req.Class, req.Priority, svc
		m.bucketAdd(entry, bucketOf(entry.tolerable))
		m.orderAppend(entry)
	}
	op.entry = entry
	req.OnComplete = op.fn
	req.SchedPriv = op
	m.sched.Submit(req)

	// A newly accepted IO consumes the slack of queued IOs it will be
	// serviced ahead of.
	m.chargeBumpedEntries(req, svc)
}

// onDispatch fires when an IO leaves CFQ for the device: its predicted time
// moves from its node's total to the device mirror, and it stops being
// cancellable.
func (m *MittCFQ) onDispatch(req *blockio.Request) {
	m.sched.ReleaseProcCharge(req.Proc, req.PredictedService)
	if op, ok := req.SchedPriv.(*cfqOp); ok {
		req.SchedPriv = nil
		if op.entry != nil {
			// The entry stays with the op (freed at completion); it merely
			// leaves the tolerable-time table.
			m.dropEntry(op.entry)
		}
	}
	m.mirror.track(req)
}

// onDrop fires when the scheduler discards a request revoked by its owner
// (tied-request cancellation) before dispatch: release its node charge and
// reclaim the op and entry — their completion callback will never run.
func (m *MittCFQ) onDrop(req *blockio.Request) {
	m.sched.ReleaseProcCharge(req.Proc, req.PredictedService)
	if op, ok := req.SchedPriv.(*cfqOp); ok {
		if e := op.entry; e != nil {
			m.dropEntry(e)
			m.putEntry(e)
		}
		m.unwind(req, op)
	}
}

// chargeBumpedEntries implements the re-bucketing rule (§4.2): every queued
// entry that the new IO would be serviced ahead of loses `svc` of tolerable
// time; entries that go negative are cancelled with EBUSY. An entry is
// "bumped" when the newcomer outranks it (higher class or ionice priority)
// or when CFQ's round-robin currently schedules the newcomer's node ahead
// of the entry's — the same-priority variant of "accepted initially, but
// soon new IOs arrive and the deadlines of the earlier IOs can be violated
// as they are bumped to the back".
func (m *MittCFQ) chargeBumpedEntries(newReq *blockio.Request, svc time.Duration) {
	if m.ordHead == nil {
		return
	}
	victims := m.victims[:0]
	for entry := m.ordHead; entry != nil; entry = entry.olNext {
		if entry.req == newReq || entry.done || entry.req.Proc == newReq.Proc {
			continue
		}
		bumps := outranks(newReq.Class, newReq.Priority, entry.class, entry.prio) ||
			(newReq.Class == entry.class &&
				m.sched.IsAheadOf(newReq.Proc, entry.req.Proc, entry.class))
		if !bumps {
			continue
		}
		m.rebucket(entry, entry.tolerable-svc)
		if entry.tolerable < 0 {
			victims = append(victims, entry)
		}
	}
	for i, v := range victims {
		m.cancel(v)
		victims[i] = nil
	}
	m.victims = victims[:0]
}

// outranks reports whether (ca,pa) is scheduled ahead of (cb,pb): a higher
// class always wins; within a class, a numerically lower ionice priority.
func outranks(ca blockio.Class, pa int, cb blockio.Class, pb int) bool {
	if ca != cb {
		return ca.Rank() < cb.Rank()
	}
	return pa < pb
}

func bucketOf(d time.Duration) int64 {
	ms := d / time.Millisecond
	if d < 0 && d%time.Millisecond != 0 {
		ms--
	}
	return int64(ms)
}

func (m *MittCFQ) getEntry() *cfqEntry {
	if e := m.entryFree; e != nil {
		m.entryFree = e.olNext
		*e = cfqEntry{}
		return e
	}
	return &cfqEntry{}
}

func (m *MittCFQ) putEntry(e *cfqEntry) {
	*e = cfqEntry{}
	e.olNext = m.entryFree
	m.entryFree = e
}

// bucketAdd appends the entry to the tail of the key's bucket ring,
// creating (or recycling) the bucket on first use.
func (m *MittCFQ) bucketAdd(e *cfqEntry, key int64) {
	b := m.buckets[key]
	if b == nil {
		if b = m.bktFree; b != nil {
			m.bktFree = b.next
			b.key, b.next = key, nil
		} else {
			b = &cfqBucket{key: key}
		}
		m.buckets[key] = b
	}
	e.bkt, e.bkPrev, e.bkNext = b, b.tail, nil
	if b.tail != nil {
		b.tail.bkNext = e
	} else {
		b.head = e
	}
	b.tail = e
}

// bucketRemove unlinks the entry from its bucket ring, recycling the bucket
// when it empties.
func (m *MittCFQ) bucketRemove(e *cfqEntry) {
	b := e.bkt
	if b == nil {
		return
	}
	if e.bkPrev != nil {
		e.bkPrev.bkNext = e.bkNext
	} else {
		b.head = e.bkNext
	}
	if e.bkNext != nil {
		e.bkNext.bkPrev = e.bkPrev
	} else {
		b.tail = e.bkPrev
	}
	e.bkt, e.bkPrev, e.bkNext = nil, nil, nil
	if b.head == nil {
		delete(m.buckets, b.key)
		b.next = m.bktFree
		m.bktFree = b
	}
}

func (m *MittCFQ) rebucket(e *cfqEntry, newTolerable time.Duration) {
	nb := bucketOf(newTolerable)
	if nb != e.bkt.key {
		m.bucketRemove(e)
		m.bucketAdd(e, nb)
	}
	e.tolerable = newTolerable
}

func (m *MittCFQ) orderAppend(e *cfqEntry) {
	e.olPrev, e.olNext = m.ordTail, nil
	if m.ordTail != nil {
		m.ordTail.olNext = e
	} else {
		m.ordHead = e
	}
	m.ordTail = e
}

// dropEntry takes the entry off the tolerable-time table (bucket ring and
// order list); it is a no-op for entries already off.
func (m *MittCFQ) dropEntry(e *cfqEntry) {
	if e.bkt == nil {
		return
	}
	m.bucketRemove(e)
	if e.olPrev != nil {
		e.olPrev.olNext = e.olNext
	} else {
		m.ordHead = e.olNext
	}
	if e.olNext != nil {
		e.olNext.olPrev = e.olPrev
	} else {
		m.ordTail = e.olPrev
	}
	e.olPrev, e.olNext = nil, nil
}

// cancel delivers late EBUSY: the IO is pulled out of the CFQ queues (never
// reaching the device) and its owner notified.
func (m *MittCFQ) cancel(e *cfqEntry) {
	if e.done {
		return
	}
	if !m.rejects(true) {
		// Injected false negative (§7.7): the cancellation verdict is
		// suppressed and the IO continues; stop tracking it. The entry
		// stays with its op until the IO completes.
		m.dropEntry(e)
		return
	}
	e.done = true
	m.dropEntry(e)
	if !m.sched.Remove(e.req) {
		// Raced with dispatch: the IO is already at the device and will
		// complete normally; undo the cancellation.
		e.done = false
		return
	}
	req := e.req
	req.Cancel()
	m.sched.ReleaseProcCharge(req.Proc, e.svc)
	m.reject(req, e.op.onDone, -e.tolerable+req.Deadline, true)
	// The removed IO never dispatches, so its completion callback never
	// fires: unwind it and reclaim the op and entry.
	m.unwind(req, e.op)
	m.putEntry(e)
}
