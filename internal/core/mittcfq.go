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
	eng   *sim.Engine
	sched *iosched.CFQ
	prof  *disk.Profile
	opt   Options
	dec   decider

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

	accepted  uint64
	rejected  uint64 // at admission
	cancelled uint64 // late EBUSY via the tolerable-time table

	replies busyReplies
	ops     sim.Freelist[cfqOp]
	disps   sim.Freelist[cfqDispatch]

	rec *metrics.Recorder
}

// cfqOp is the pooled admission-side completion context. Until the IO
// dispatches it is reachable from the request via SchedPriv, so the drop
// and late-cancellation paths can reclaim it (and its entry) when the
// completion callback will never fire.
type cfqOp struct {
	m       *MittCFQ
	entry   *cfqEntry
	hasSLO  bool
	rawBusy bool
	wait    time.Duration
	svc     time.Duration
	prev    func(*blockio.Request)
	onDone  func(error)
	fn      func(*blockio.Request) // pre-bound op.done
}

func (op *cfqOp) Bind() { op.fn = op.done }

func (op *cfqOp) done(r *blockio.Request) {
	m, entry, prev, onDone := op.m, op.entry, op.prev, op.onDone
	hasSLO, rawBusy, wait, svc := op.hasSLO, op.rawBusy, op.wait, op.svc
	op.entry, op.prev, op.onDone = nil, nil, nil
	m.ops.Release(op)
	if entry != nil {
		if entry.done {
			// Cancelled late; EBUSY already delivered. (The scheduler drops
			// cancelled IOs before dispatch, so this should not fire.)
			return
		}
		m.putEntry(entry)
	}
	if hasSLO && m.dec.shadow {
		actualWait := r.Latency() - svc
		if actualWait < 0 {
			actualWait = 0
		}
		m.dec.observe(rawBusy, wait, actualWait, r.Deadline)
	}
	if m.rec != nil {
		actualWait := r.Latency() - svc
		if actualWait < 0 {
			actualWait = 0
		}
		m.rec.Prediction(metrics.RMittCFQ, r, wait, actualWait)
	}
	err := r.Err
	if prev != nil {
		prev(r)
	}
	onDone(err)
}

// cfqDispatch is the pooled dispatch-side wrapper feeding the device mirror.
type cfqDispatch struct {
	m    *MittCFQ
	prev func(*blockio.Request)
	fn   func(*blockio.Request) // pre-bound d.done
}

func (d *cfqDispatch) Bind() { d.fn = d.done }

func (d *cfqDispatch) done(r *blockio.Request) {
	m, prev := d.m, d.prev
	d.prev = nil
	m.disps.Release(d)
	m.mirror.complete(r)
	if prev != nil {
		prev(r)
	}
}

// SetRecorder attaches a metrics recorder (nil disables, the default).
func (m *MittCFQ) SetRecorder(rec *metrics.Recorder) { m.rec = rec }

// cfqEntry is one accepted, still-cancellable, deadline-carrying IO. It is
// pooled: alive from admission until its op completes, its request drops,
// or its late cancellation succeeds.
type cfqEntry struct {
	req       *blockio.Request
	onDone    func(error)
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
		eng: eng, sched: sched, prof: prof, opt: opt,
		mirror:  newSSTFMirror(eng, prof, opt.Calibrate),
		buckets: make(map[int64]*cfqBucket),
	}
	m.dec.thop = opt.Thop
	m.dec.shadow = opt.Shadow
	sched.SetDispatchHook(m.onDispatch)
	sched.SetDropHook(m.onDrop)
	return m
}

// SetErrorInjection enables §7.7 fault injection.
func (m *MittCFQ) SetErrorInjection(fnRate, fpRate float64, rng *sim.RNG) {
	m.dec.injFN, m.dec.injFP, m.dec.injRNG = fnRate, fpRate, rng
}

// SetMiscalibration distorts every wait prediction to wait×scale + bias
// (scale 0 = no scaling; (0,0) restores the calibrated predictor).
func (m *MittCFQ) SetMiscalibration(bias time.Duration, scale float64) {
	m.dec.misBias, m.dec.misScale = bias, scale
}

// Accuracy returns shadow-mode counters.
func (m *MittCFQ) Accuracy() Accuracy { return m.dec.acc }

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
	now := m.eng.Now()
	if req.SubmitTime == 0 {
		req.SubmitTime = now
	}
	wait := m.dec.adjust(m.PredictWait(req.Proc, req.Class))
	svc := m.mirror.svcTime(m.mirror.headPos, req.Offset, req.Size)
	req.PredictedWait = wait
	req.PredictedService = svc

	hasSLO := req.Deadline > blockio.NoDeadline
	rawBusy := hasSLO && wait > m.dec.threshold(req.Deadline)
	if hasSLO {
		if m.dec.shadow {
			req.ShadowBusy = rawBusy
			if rawBusy {
				m.rec.ShadowBusy(metrics.RMittCFQ)
			}
		} else if m.dec.rejects(rawBusy) {
			m.rejected++
			m.rec.Rejected(metrics.RMittCFQ, req, wait, false)
			m.replies.deliver(m.eng, m.opt.SyscallCost, onDone, &BusyError{PredictedWait: wait})
			return
		}
	}

	m.accepted++
	m.rec.Admitted(metrics.RMittCFQ, req)
	m.sched.AddProcCharge(req.Proc, svc)

	op := sim.Acquire(&m.ops)
	op.m, op.hasSLO, op.rawBusy, op.wait, op.svc = m, hasSLO, rawBusy, wait, svc
	op.prev, op.onDone = req.OnComplete, onDone

	var entry *cfqEntry
	if hasSLO && !m.dec.shadow {
		// Track the IO in the tolerable-time table until dispatch.
		entry = m.getEntry()
		entry.req, entry.onDone, entry.op = req, onDone, op
		entry.tolerable = m.dec.threshold(req.Deadline) - wait
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
	m.mirror.add(req)
	d := sim.Acquire(&m.disps)
	d.m, d.prev = m, req.OnComplete
	req.OnComplete = d.fn
}

// onDrop fires when the scheduler discards a request revoked by its owner
// (tied-request cancellation) before dispatch: release its node charge and
// reclaim the op and entry — their completion callback will never run.
func (m *MittCFQ) onDrop(req *blockio.Request) {
	m.sched.ReleaseProcCharge(req.Proc, req.PredictedService)
	if op, ok := req.SchedPriv.(*cfqOp); ok {
		req.SchedPriv = nil
		req.OnComplete = op.prev
		if e := op.entry; e != nil {
			m.dropEntry(e)
			m.putEntry(e)
		}
		op.entry, op.prev, op.onDone = nil, nil, nil
		m.ops.Release(op)
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
	if !m.dec.rejects(true) {
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
	m.cancelled++
	busyErr := &BusyError{PredictedWait: -e.tolerable + req.Deadline}
	m.rec.Rejected(metrics.RMittCFQ, req, busyErr.PredictedWait, true)
	m.replies.deliver(m.eng, m.opt.SyscallCost, e.onDone, busyErr)
	// The removed IO never dispatches, so its completion callback never
	// fires: unwind it and reclaim the op and entry.
	if op := e.op; op != nil {
		req.OnComplete = op.prev
		req.SchedPriv = nil
		op.entry, op.prev, op.onDone = nil, nil, nil
		m.ops.Release(op)
	}
	m.putEntry(e)
}
