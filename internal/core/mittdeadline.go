package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// MittDeadline integrates MittOS with the deadline IO scheduler —
// demonstrating that the admission principle carries across queueing
// disciplines (§3.4 names "noop/FIFO, CFQ, anticipatory, etc."). The
// deadline scheduler dispatches in sorted batches with FIFO-expiry
// preemption, so a newly arriving read's wait is bounded by the total
// predicted service of everything queued ahead of it plus the
// device-resident work; MittDeadline keeps that total as a running O(1)
// accumulator (reads only — queued writes can be starved behind it).
type MittDeadline struct {
	// k is held by name, not embedded: MittDeadline has no metrics
	// resource and no injection knobs, so it forwards only Accuracy and
	// Counts.
	k      kernel
	sched  *iosched.DeadlineSched
	mirror *sstfMirror

	// queueTotal tracks the predicted service time of scheduler-held
	// requests per direction (0=read, 1=write).
	queueTotal [2]time.Duration

	ops sim.Freelist[dlOp]
}

// dlOp is the pooled per-IO completion context. Until the IO dispatches it
// is reachable from the request via SchedPriv, so the drop path can reclaim
// it when the completion callback will never fire.
type dlOp struct {
	m *MittDeadline
	verdict
	fn func(*blockio.Request) // pre-bound op.done
}

func (op *dlOp) Bind() { op.fn = op.done }

func (op *dlOp) done(r *blockio.Request) {
	m, v := op.m, op.verdict
	op.verdict = verdict{}
	m.ops.Release(op)
	m.k.complete(&v, r)
}

// NewMittDeadline builds the layer over a deadline scheduler.
func NewMittDeadline(eng *sim.Engine, sched *iosched.DeadlineSched,
	prof *disk.Profile, opt Options) *MittDeadline {
	m := &MittDeadline{
		k:      newKernel(eng, metrics.RNode, opt), // no recorder attaches
		sched:  sched,
		mirror: newSSTFMirror(eng, prof, opt.Calibrate),
	}
	sched.SetDispatchHook(m.onDispatch)
	sched.SetDropHook(m.onDrop)
	return m
}

// unqueue removes an IO's predicted service from the scheduler total.
func (m *MittDeadline) unqueue(req *blockio.Request) {
	dir := dirOf(req)
	if t := m.queueTotal[dir] - req.PredictedService; t > 0 {
		m.queueTotal[dir] = t
	} else {
		m.queueTotal[dir] = 0
	}
}

// onDispatch moves an IO's predicted service from the scheduler total to
// the device mirror.
func (m *MittDeadline) onDispatch(req *blockio.Request) {
	m.unqueue(req)
	req.SchedPriv = nil
	m.mirror.track(req)
}

// onDrop fires when the scheduler discards a request revoked by its owner
// before dispatch: its charge leaves the scheduler total and its op is
// reclaimed, restoring the request's previous completion hook.
func (m *MittDeadline) onDrop(req *blockio.Request) {
	m.unqueue(req)
	if op, ok := req.SchedPriv.(*dlOp); ok {
		req.OnComplete, req.SchedPriv = op.prev, nil
		op.verdict = verdict{}
		m.ops.Release(op)
	}
}

func dirOf(req *blockio.Request) int {
	if req.Op == blockio.Write {
		return 1
	}
	return 0
}

// Accuracy returns shadow-mode counters.
func (m *MittDeadline) Accuracy() Accuracy { return m.k.Accuracy() }

// Counts returns accepted/rejected totals.
func (m *MittDeadline) Counts() (accepted, rejected uint64) { return m.k.Counts() }

// PredictWait estimates a new read's queueing delay: device drain + all
// queued reads (they sort ahead or behind, but the batch visits everything
// within ~one sweep) + expired writes' batch share.
func (m *MittDeadline) PredictWait() time.Duration {
	wait := m.mirror.drainTime() + m.queueTotal[0]
	// One write batch can interleave per WritesStarved read batches; the
	// conservative bound charges the queued writes' share.
	if m.queueTotal[1] > 0 {
		share := m.queueTotal[1] / time.Duration(m.sched.Config().WritesStarved)
		wait += share
	}
	return wait
}

// SubmitSLO implements Target.
func (m *MittDeadline) SubmitSLO(req *blockio.Request, onDone func(error)) {
	svc := m.mirror.svcTime(m.mirror.headPos, req.Offset, req.Size)
	v, ok := m.k.admit(req, m.PredictWait(), svc, onDone)
	if !ok {
		return
	}
	m.queueTotal[dirOf(req)] += svc

	op := sim.Acquire(&m.ops)
	op.m, op.verdict = m, v
	req.OnComplete = op.fn
	req.SchedPriv = op
	m.sched.Submit(req)
}
