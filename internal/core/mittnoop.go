package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// MittNoop is MittOS integrated with the noop disk scheduler (§4.1,
// Appendix A).
//
// The predictor mirrors the device queue: it tracks every outstanding IO
// and, knowing the disk's SSTF policy, replays the service order to compute
// the wait an arriving IO would experience (`sstfTime`). Admission rejects
// with EBUSY when that wait exceeds deadline+Thop, before the IO is queued.
// Per-IO service times come from the offline disk profile; completion-time
// residuals feed an EWMA bias corrector (the Tdiff calibration of §4.1) so
// model error does not accumulate.
//
// Options.Naive selects the paper's strawman instead: a single FIFO
// TnextFree accumulator with no SSTF modeling — the "without our precision
// improvements" ablation of §7.6, whose inaccuracy is dramatically higher.
type MittNoop struct {
	kernel
	sched  *iosched.Noop
	prof   *disk.Profile
	opt    Options
	mirror *sstfMirror

	// Naive-mode state (Options.Naive).
	nextFree sim.Time
	lastTail int64

	ops sim.Freelist[noopOp]
}

// noopOp is the pooled per-IO completion context: the admission verdict
// plus the naive predictor's calibration input, with the OnComplete
// wrapper bound once.
type noopOp struct {
	m *MittNoop
	verdict
	predCompletion sim.Time
	fn             func(*blockio.Request) // pre-bound op.done
}

func (op *noopOp) Bind() { op.fn = op.done }

func (op *noopOp) done(r *blockio.Request) {
	m, v, predCompletion := op.m, op.verdict, op.predCompletion
	op.verdict = verdict{}
	m.ops.Release(op)
	if m.opt.Naive {
		if m.opt.Calibrate {
			// Tdiff calibration (§4.1): shift TnextFree by the
			// prediction residual, bounded so one bad sample cannot
			// destabilize the model.
			diff := r.CompleteTime.Sub(predCompletion)
			m.nextFree = m.nextFree.Add(clampDur(diff, -5*time.Millisecond, 5*time.Millisecond))
		}
	} else {
		m.mirror.complete(r)
	}
	m.complete(&v, r)
}

// NewMittNoop builds the layer over a noop scheduler and its disk profile.
func NewMittNoop(eng *sim.Engine, sched *iosched.Noop, prof *disk.Profile, opt Options) *MittNoop {
	return &MittNoop{kernel: newKernel(eng, metrics.RMittNoop, opt),
		sched: sched, prof: prof, opt: opt,
		mirror: newSSTFMirror(eng, prof, opt.Calibrate)}
}

// ProfileDrift returns the calibration layer's running residual — the
// §8.1 staleness signal. A healthy profile keeps it near zero; sustained
// values beyond ProfileStaleThreshold mean the device no longer matches
// its offline profile and should be re-profiled.
func (m *MittNoop) ProfileDrift() time.Duration { return m.mirror.DriftBias() }

// ProfileStaleThreshold is the suggested drift bound beyond which callers
// should re-profile (half the typical seek cost).
const ProfileStaleThreshold = time.Millisecond

// ProfileStale reports whether the drift signal exceeds the threshold.
func (m *MittNoop) ProfileStale() bool {
	d := m.ProfileDrift()
	if d < 0 {
		d = -d
	}
	return d > ProfileStaleThreshold
}

// Reprofile swaps in a freshly collected profile and resets calibration —
// the §8.1 recollection step.
func (m *MittNoop) Reprofile(prof *disk.Profile) {
	m.prof = prof
	m.mirror.prof = prof
	m.mirror.driftBias = 0
}

// PredictWait returns the time until the disk drains everything currently
// outstanding — the queue-level busyness signal (Fig. 13b plots it).
func (m *MittNoop) PredictWait() time.Duration {
	if m.opt.Naive {
		now := m.eng.Now()
		if m.nextFree <= now {
			return 0
		}
		return m.nextFree.Sub(now)
	}
	return m.mirror.drainTime()
}

// PredictWaitFor returns the wait an IO at (off, sz) would experience if
// submitted now, per the SSTF replay.
func (m *MittNoop) PredictWaitFor(off int64, sz int) time.Duration {
	if m.opt.Naive {
		return m.PredictWait()
	}
	return m.mirror.waitFor(off, sz)
}

// SubmitSLO implements Target.
func (m *MittNoop) SubmitSLO(req *blockio.Request, onDone func(error)) {
	var wait, svc time.Duration
	if m.opt.Naive {
		wait = m.PredictWait()
		svc = m.prof.ServiceTime(req.Offset-m.lastTail, req.Size)
	} else {
		wait = m.mirror.waitFor(req.Offset, req.Size)
		svc = m.mirror.svcTime(m.mirror.headPos, req.Offset, req.Size)
	}
	v, ok := m.admit(req, wait, svc, onDone)
	if !ok {
		return
	}
	var predCompletion sim.Time
	if m.opt.Naive {
		if now := m.eng.Now(); m.nextFree < now {
			// Idle disk: automatic recalibration (TnextFree = Tnow + Tprocess).
			m.nextFree = now
		}
		predCompletion = m.nextFree.Add(svc)
		m.nextFree = predCompletion
		m.lastTail = req.End()
	} else {
		m.mirror.add(req)
	}

	op := sim.Acquire(&m.ops)
	op.m, op.verdict, op.predCompletion = m, v, predCompletion
	req.OnComplete = op.fn
	m.sched.Submit(req)
}
