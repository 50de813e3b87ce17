package cluster

import (
	"errors"
	"time"

	"mittos/internal/core"
	"mittos/internal/sim"
)

// ErrQuorumFailed reports a replicated put that could not assemble W acks:
// every base copy, replacement, and last-ditch retry either refused or
// failed. The write may still be partially durable on the acking minority.
var ErrQuorumFailed = errors.New("cluster: write quorum failed")

// PutResult reports one finished user-level replicated put.
type PutResult struct {
	Latency time.Duration
	// Acks is how many replicas had acknowledged when the verdict fired.
	Acks int
	// Copies is how many copies the strategy had sent by then (base
	// replicas plus replacements/hedges/failovers).
	Copies int
	// Err is non-nil only when the quorum failed (ErrQuorumFailed).
	Err error
}

// PutStrategy issues one client put against the cluster and reports the
// user-observed quorum verdict — the write-side mirror of Strategy.
type PutStrategy interface {
	Name() string
	Put(key int64, onDone func(PutResult))
	// Counters is the strategy's accounting (promoted from the embedded
	// PutCounters).
	Counters() *PutCounters
}

// quorumVerdict is a quorumState transition.
type quorumVerdict int

// Verdicts returned by quorumState.report.
const (
	quorumPending quorumVerdict = iota // no terminal yet
	quorumReached                      // this reply delivered the Wth ack
	quorumLate                         // reply after the terminal verdict
)

// quorumState is the W-of-N ack assembly for one replicated put: copies go
// out via add, replies come back via report, and exactly one terminal is
// reached — quorumReached from the Wth ack, or the strategy calling fail
// once it is out of copies to send. Every copy targets a distinct node, so
// ack counting needs no per-node dedup. The type is deliberately free of
// cluster plumbing: the FuzzQuorumPut harness drives it directly against a
// reference model, and the pooled per-put op contexts embed it by value.
type quorumState struct {
	w      int
	copies int // copies sent
	acks   int
	busy   int
	down   int
	errs   int
	done   bool
}

// add records n more copies sent.
func (q *quorumState) add(n int) { q.copies += n }

// pending reports copies still awaiting a reply.
func (q *quorumState) pending() int { return q.copies - q.acks - q.busy - q.down - q.errs }

// report classifies one replica reply. Replies keep being tallied after the
// terminal (the late arrivals the wasted-write accounting inspects), so
// after a full drain acks+busy+down+errs == copies always holds.
func (q *quorumState) report(err error) quorumVerdict {
	late := q.done
	switch {
	case err == nil:
		q.acks++
	case core.IsBusy(err):
		q.busy++
	case errors.Is(err, ErrNodeDown):
		q.down++
	default:
		q.errs++
	}
	if late {
		return quorumLate
	}
	if err == nil && q.acks >= q.w {
		q.done = true
		return quorumReached
	}
	return quorumPending
}

// fail marks the failure terminal: the strategy has no copies left to send
// and the outstanding set cannot reach W.
func (q *quorumState) fail() { q.done = true }

// PutCounters is the shared per-strategy accounting, embedded in every put
// strategy. Every reply is counted — including late ones — so after the
// cluster drains, CopiesSent == Acks+Busy+NodeDown+Errors and
// Puts == Quorums+Failed.
type PutCounters struct {
	Puts       uint64 // user-level puts issued
	CopiesSent uint64 // replica copies sent (base + extras)
	Acks       uint64
	Busy       uint64 // EBUSY fast rejections
	NodeDown   uint64 // crashed-replica refusals
	Errors     uint64 // WAL write failures (EIO)
	Quorums    uint64 // puts that assembled W acks
	Failed     uint64 // puts that exhausted every option short of W
	// WastedWrites counts executed acks/errors from EXTRA copies (timeout
	// replacements, hedges, MittOS failovers) that landed after the put's
	// terminal verdict — durable work the client never waited for. Base
	// replica copies are replication, never waste.
	WastedWrites uint64
}

// Counters implements PutStrategy for every strategy embedding PutCounters.
func (pc *PutCounters) Counters() *PutCounters { return pc }

func (pc *PutCounters) count(err error) {
	switch {
	case err == nil:
		pc.Acks++
	case core.IsBusy(err):
		pc.Busy++
	case errors.Is(err, ErrNodeDown):
		pc.NodeDown++
	default:
		pc.Errors++
	}
}

// quorumW resolves a strategy's W knob: 0 means a majority of the
// replication factor (W = R/2+1, the Riak/Cassandra QUORUM default).
func quorumW(c *Cluster, w int) int {
	if w > 0 {
		return w
	}
	return c.R/2 + 1
}

// putPolicy is what a put strategy adds to the shared put kernel: what to
// do with a reply that leaves the quorum pending (a refusal, or an ack
// still short of W), and what to do when its timer fires before the
// verdict. Everything else — counting, the verdict, late-copy waste,
// pooling — is putOp's.
type putPolicy interface {
	PutStrategy
	onPending(op *putOp, node int, err error)
	onTimer(op *putOp)
}

// putOp is the pooled per-put kernel every put strategy runs on: the W-of-N
// quorumState embedded by value, the ring walk extra copies draw from, one
// optional timer, and the exactly-once terminal. refs counts the copies
// still out plus an armed timer, so the op outlives the stragglers that
// reply after the verdict. The timer is an engine-owned recycled event that
// cannot be cancelled; it stays quiet when it finds the quorum decided.
type putOp struct {
	c        *Cluster
	pol      putPolicy
	pc       *PutCounters
	key      int64
	start    sim.Time
	onDone   func(PutResult)
	q        quorumState
	cands    ringCandidates
	refs     int
	timerFn  func() // pre-bound op.timerFire
	replicas []int
	rejects  []putReject // MittOSPut's last-ditch pool, reused across puts
}

// putCopy is the pooled per-copy context: a reply must know the node it
// came from (MittOSPut's last-ditch pool records it) and whether the copy
// was an extra (only an extra's late reply is wasted work), so each
// in-flight copy carries one of these instead of a closure.
type putCopy struct {
	op    *putOp
	node  int
	extra bool
	fn    func(error) // pre-bound cp.reply
}

func (op *putOp) Bind()   { op.timerFn = op.timerFire }
func (cp *putCopy) Bind() { cp.fn = cp.reply }

// newPut starts one put on the kernel; the strategy then arms its timer,
// if it has one, and sends the base copies.
func (c *Cluster) newPut(pol putPolicy, w int, key int64, onDone func(PutResult)) *putOp {
	op := sim.Acquire(&c.pools.putOps)
	op.c, op.pol, op.pc = c, pol, pol.Counters() // pooled across fleets: rebind the owner
	op.pc.Puts++
	op.key, op.start, op.onDone = key, c.Eng.Now(), onDone
	op.q = quorumState{w: quorumW(c, w)}
	op.replicas = c.ReplicasInto(key, op.replicas)
	op.cands = newRingCandidates(c, op.replicas[0])
	op.rejects = op.rejects[:0]
	return op
}

// arm schedules the strategy's timer, which holds a reference until it fires.
func (op *putOp) arm(d time.Duration) {
	op.refs++
	op.c.Eng.After(d, op.timerFn)
}

// sendBase sends one copy to each of the key's replicas.
func (op *putOp) sendBase(deadline time.Duration) {
	for _, r := range op.replicas {
		op.send(r, deadline, false)
	}
}

func (op *putOp) send(node int, deadline time.Duration, extra bool) {
	op.q.add(1)
	op.refs++
	op.pc.CopiesSent++
	cp := sim.Acquire(&op.c.pools.putCopies)
	cp.op, cp.node, cp.extra = op, node, extra
	op.c.PutDurableCall(node, op.key, deadline, cp.fn)
}

// handoff sends up to n extra copies to the next live ring nodes and
// reports whether any went out.
func (op *putOp) handoff(n int, deadline time.Duration) bool {
	sent := false
	for ; n > 0; n-- {
		node := op.cands.take()
		if node < 0 {
			break
		}
		sent = true
		op.send(node, deadline, true)
	}
	return sent
}

func (op *putOp) deref() {
	op.refs--
	if op.refs > 0 {
		return
	}
	op.onDone = nil
	op.c.pools.putOps.Release(op)
}

func (op *putOp) terminal(err error) {
	lat := op.c.Eng.Now().Sub(op.start)
	if err == nil {
		op.pc.Quorums++
		op.c.Nodes[op.replicas[0]].ObservePutQuorum(lat)
	} else {
		op.pc.Failed++
	}
	op.onDone(PutResult{Latency: lat, Acks: op.q.acks, Copies: op.q.copies, Err: err})
}

func (cp *putCopy) reply(err error) {
	op, node, extra := cp.op, cp.node, cp.extra
	cp.op = nil
	op.c.pools.putCopies.Release(cp)
	op.pc.count(err)
	switch op.q.report(err) {
	case quorumReached:
		op.terminal(nil)
	case quorumLate:
		if extra && wasted(err) {
			op.pc.WastedWrites++ // the extra copy landed after the verdict
		}
	case quorumPending:
		op.pol.onPending(op, node, err)
		if op.q.pending() == 0 {
			// Everything replied short of W and the policy sent nothing
			// more: the put fails.
			op.q.fail()
			op.terminal(ErrQuorumFailed)
		}
	}
	op.deref()
}

func (op *putOp) timerFire() {
	if !op.q.done {
		op.pol.onTimer(op)
	}
	op.deref()
}

// BasePut is vanilla quorum replication: send one copy to each of the key's
// R replicas with no SLO, ack the user at the Wth reply, wait out stragglers
// silently. The straggler tail IS the user tail whenever W replies include a
// contended replica.
type BasePut struct {
	C *Cluster
	// W is the ack quorum; 0 means majority (R/2+1).
	W int

	PutCounters
}

// Name implements PutStrategy.
func (s *BasePut) Name() string { return "Base" }

// Put implements PutStrategy.
func (s *BasePut) Put(key int64, onDone func(PutResult)) {
	s.C.newPut(s, s.W, key, onDone).sendBase(0)
}

// BasePut has no extras: a quorum short of W simply fails.
func (s *BasePut) onPending(*putOp, int, error) {}
func (s *BasePut) onTimer(*putOp)               {}

// ringCandidates walks the consistent-hash ring past the key's replica set,
// handing out each remaining node index once — the Dynamo-style sloppy-
// quorum handoff targets replacements, hedges, and failovers write to.
type ringCandidates struct {
	c    *Cluster
	base int // the key's primary replica
	next int // next ring offset to hand out (starts past the replica set)
}

func newRingCandidates(c *Cluster, primary int) ringCandidates {
	return ringCandidates{c: c, base: primary, next: c.R}
}

// take returns the next unused live node on the ring, or -1 when the ring is
// exhausted. Crashed nodes are skipped (a handoff to a dead node is an RTT
// spent on a refusal).
func (rc *ringCandidates) take() int {
	for rc.next < len(rc.c.Nodes) {
		n := (rc.base + rc.next) % len(rc.c.Nodes)
		rc.next++
		if !rc.c.Nodes[n].Down() {
			return n
		}
	}
	return -1
}

// handoffDown is the pending-reply hook TimeoutPut and HedgedPut share: a
// crashed replica's refusal came back in one RTT, so its copy goes to the
// ring now rather than after the timer. It reports whether a copy went out.
func (op *putOp) handoffDown(err error) bool {
	return errors.Is(err, ErrNodeDown) && op.handoff(1, 0)
}

// handoffMissing is the timer hook they share: hand the missing acks off to
// the ring. The abandoned stragglers keep running (no revocation on the
// write path), which is why their late acks are never waste but a
// hand-off's are.
func (op *putOp) handoffMissing() bool { return op.handoff(op.q.w-op.q.acks, 0) }

// TimeoutPut is the "AppTO" write: quorum-replicate with no SLO and, after a
// conservative timeout, hand the still-missing acks off to the next nodes on
// the ring (there is nothing to cancel — the stragglers' WAL appends are
// group-committed and will land regardless, which is exactly why their late
// acks show up as wasted writes). A crashed replica's refusal triggers the
// handoff immediately instead of burning the timeout.
type TimeoutPut struct {
	C  *Cluster
	TO time.Duration
	// W is the ack quorum; 0 means majority (R/2+1).
	W int

	PutCounters
	Retries uint64
}

// Name implements PutStrategy.
func (s *TimeoutPut) Name() string { return "AppTO" }

// Put implements PutStrategy.
func (s *TimeoutPut) Put(key int64, onDone func(PutResult)) {
	op := s.C.newPut(s, s.W, key, onDone)
	op.arm(s.TO)
	op.sendBase(0)
}

// Both hand-offs, the crash one and the timer one, are retries.
func (s *TimeoutPut) onPending(op *putOp, _ int, err error) {
	if op.handoffDown(err) {
		s.Retries++
	}
}

func (s *TimeoutPut) onTimer(op *putOp) {
	if op.handoffMissing() {
		s.Retries++
	}
}

// HedgedPut is the Dean & Barroso hedge applied to writes: quorum-replicate
// with no SLO and, once the put has been outstanding past the expected p95,
// proactively duplicate the missing acks onto the next ring nodes. The
// losing copies are pure write amplification (WastedWrites); a crashed
// replica's refusal hedges immediately.
type HedgedPut struct {
	C          *Cluster
	HedgeAfter time.Duration
	// W is the ack quorum; 0 means majority (R/2+1).
	W int

	PutCounters
	Hedges uint64
}

// Name implements PutStrategy.
func (s *HedgedPut) Name() string { return "Hedged" }

// Put implements PutStrategy.
func (s *HedgedPut) Put(key int64, onDone func(PutResult)) {
	op := s.C.newPut(s, s.W, key, onDone)
	op.arm(s.HedgeAfter)
	op.sendBase(0)
}

// Only the timer's hand-off is a hedge; a crash hand-off is not counted.
func (s *HedgedPut) onPending(op *putOp, _ int, err error) { op.handoffDown(err) }

func (s *HedgedPut) onTimer(op *putOp) {
	if op.handoffMissing() {
		s.Hedges++
	}
}

// MittOSPut is the paper's contribution on the write path: every copy
// carries the deadline SLO, so a contended replica's WAL admission answers
// EBUSY in one RTT instead of holding the quorum hostage; the client fails
// the copy over to the next ring node instantly (still with the deadline).
// When the ring is exhausted and the quorum is still short, the last-ditch
// pass re-sends the missing acks to rejecting replicas with the deadline
// disabled — §5's "cancel the SLO on the final try" no-error guarantee —
// picking the least-busy rejectors first when UseWaitHint exposes the
// predicted-wait hints (§7.8.1/§8.1).
type MittOSPut struct {
	C        *Cluster
	Deadline time.Duration
	// W is the ack quorum; 0 means majority (R/2+1).
	W int
	// UseWaitHint ranks last-ditch targets by their EBUSY predicted-wait
	// hints instead of rejection order.
	UseWaitHint bool

	PutCounters
	Failovers uint64
	LastDitch uint64
}

// putReject is a rejecting node and its predicted wait, in rejection order —
// the last-ditch candidate pool.
type putReject struct {
	node int
	wait time.Duration
}

// Name implements PutStrategy.
func (s *MittOSPut) Name() string { return "MittOS" }

// Put implements PutStrategy.
func (s *MittOSPut) Put(key int64, onDone func(PutResult)) {
	s.C.newPut(s, s.W, key, onDone).sendBase(s.Deadline)
}

func (s *MittOSPut) onTimer(*putOp) {}

func (s *MittOSPut) onPending(op *putOp, node int, err error) {
	busy := core.IsBusy(err)
	if busy {
		wait := time.Duration(0)
		if be, ok := err.(*core.BusyError); ok {
			wait = be.PredictedWait
		}
		op.rejects = append(op.rejects, putReject{node: node, wait: wait})
	}
	if (busy || errors.Is(err, ErrNodeDown)) && op.handoff(1, s.Deadline) {
		// Instant failover: the refusal cost one RTT, not a queue wait.
		// The replacement still carries the deadline.
		s.Failovers++
		return
	}
	if errors.Is(err, ErrRevoked) {
		// Teardown harvest of a stranded copy: the engine is being reset,
		// so sending last-ditch copies would only strand more contexts.
		return
	}
	if op.q.w-op.q.acks > op.q.pending() {
		s.lastDitch(op)
	}
}

// lastDitch re-targets rejectors with the deadline disabled; they executed
// nothing for the rejected copy, so a retry duplicates no work. A rejector
// that has crashed since is skipped, and still uses up one missing ack.
func (s *MittOSPut) lastDitch(op *putOp) {
	need := op.q.w - op.q.acks - op.q.pending()
	for ; need > 0 && len(op.rejects) > 0; need-- {
		best := 0
		if s.UseWaitHint {
			for j := 1; j < len(op.rejects); j++ {
				if op.rejects[j].wait < op.rejects[best].wait {
					best = j
				}
			}
		}
		n := op.rejects[best].node
		op.rejects[best] = op.rejects[len(op.rejects)-1]
		op.rejects = op.rejects[:len(op.rejects)-1]
		if s.C.Nodes[n].Down() {
			continue
		}
		s.LastDitch++
		op.send(n, 0, true)
	}
}
