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
	eng    *sim.Engine
	sched  *iosched.Noop
	prof   *disk.Profile
	opt    Options
	dec    decider
	mirror *sstfMirror

	// Naive-mode state (Options.Naive).
	nextFree sim.Time
	lastTail int64

	accepted uint64
	rejected uint64

	replies busyReplies
	ops     sim.Freelist[noopOp]

	rec *metrics.Recorder
}

// noopOp is the pooled per-IO completion context: calibration inputs and
// the caller's callbacks, with the OnComplete wrapper bound once.
type noopOp struct {
	m              *MittNoop
	predCompletion sim.Time
	hasSLO         bool
	rawBusy        bool
	wait           time.Duration
	svc            time.Duration
	prev           func(*blockio.Request)
	onDone         func(error)
	fn             func(*blockio.Request) // pre-bound op.done
}

func (op *noopOp) Bind() { op.fn = op.done }

func (op *noopOp) done(r *blockio.Request) {
	m, prev, onDone := op.m, op.prev, op.onDone
	predCompletion, hasSLO, rawBusy := op.predCompletion, op.hasSLO, op.rawBusy
	wait, svc := op.wait, op.svc
	op.prev, op.onDone = nil, nil
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
		m.rec.Prediction(metrics.RMittNoop, r, wait, actualWait)
	}
	err := r.Err
	if prev != nil {
		prev(r)
	}
	onDone(err)
}

// SetRecorder attaches a metrics recorder (nil disables, the default).
func (m *MittNoop) SetRecorder(rec *metrics.Recorder) { m.rec = rec }

// NewMittNoop builds the layer over a noop scheduler and its disk profile.
func NewMittNoop(eng *sim.Engine, sched *iosched.Noop, prof *disk.Profile, opt Options) *MittNoop {
	m := &MittNoop{eng: eng, sched: sched, prof: prof, opt: opt,
		mirror: newSSTFMirror(eng, prof, opt.Calibrate)}
	m.dec.thop = opt.Thop
	m.dec.shadow = opt.Shadow
	return m
}

// SetErrorInjection enables §7.7 fault injection.
func (m *MittNoop) SetErrorInjection(fnRate, fpRate float64, rng *sim.RNG) {
	m.dec.injFN, m.dec.injFP, m.dec.injRNG = fnRate, fpRate, rng
}

// SetMiscalibration distorts every wait prediction to wait×scale + bias
// (scale 0 = no scaling; (0,0) restores the calibrated predictor). This is
// the §8.1 stale-profile fault: the predictor is wrong in a structured way.
func (m *MittNoop) SetMiscalibration(bias time.Duration, scale float64) {
	m.dec.misBias, m.dec.misScale = bias, scale
}

// Accuracy returns shadow-mode counters.
func (m *MittNoop) Accuracy() Accuracy { return m.dec.acc }

// Counts returns accepted/rejected totals.
func (m *MittNoop) Counts() (accepted, rejected uint64) { return m.accepted, m.rejected }

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
	now := m.eng.Now()
	if req.SubmitTime == 0 {
		req.SubmitTime = now
	}
	var wait, svc time.Duration
	if m.opt.Naive {
		wait = m.PredictWait()
		svc = m.prof.ServiceTime(req.Offset-m.lastTail, req.Size)
	} else {
		wait = m.mirror.waitFor(req.Offset, req.Size)
		svc = m.mirror.svcTime(m.mirror.headPos, req.Offset, req.Size)
	}
	wait = m.dec.adjust(wait)
	req.PredictedWait = wait
	req.PredictedService = svc

	hasSLO := req.Deadline > blockio.NoDeadline
	rawBusy := hasSLO && wait > m.dec.threshold(req.Deadline)
	if hasSLO {
		if m.dec.shadow {
			req.ShadowBusy = rawBusy
			if rawBusy {
				m.rec.ShadowBusy(metrics.RMittNoop)
			}
		} else if m.dec.rejects(rawBusy) {
			// Fast rejection: the IO is never queued (§3.3 "the rejected
			// request is not queued; it is automatically cancelled").
			m.rejected++
			m.rec.Rejected(metrics.RMittNoop, req, wait, false)
			m.replies.deliver(m.eng, m.opt.SyscallCost, onDone, &BusyError{PredictedWait: wait})
			return
		}
	}

	m.accepted++
	m.rec.Admitted(metrics.RMittNoop, req)
	var predCompletion sim.Time
	if m.opt.Naive {
		if m.nextFree < now {
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
	op.m, op.predCompletion, op.hasSLO, op.rawBusy = m, predCompletion, hasSLO, rawBusy
	op.wait, op.svc = wait, svc
	op.prev, op.onDone = req.OnComplete, onDone
	req.OnComplete = op.fn
	m.sched.Submit(req)
}
