package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// kernel is the admission rule every Mitt layer applies (§3.3): predict
// the wait; if it exceeds deadline+Thop, return EBUSY after the syscall
// cost and never queue the IO; otherwise admit it and score the prediction
// when it completes (§7.6). Each layer keeps only its predictor and its own
// bookkeeping; the verdict, the EBUSY reply, completion scoring, the
// accepted/rejected/cancelled counts, shadow mode (§7.6), error injection
// (§7.7) and miscalibration (§8.1) live here once.
type kernel struct {
	eng     *sim.Engine
	res     metrics.Resource // the layer's metrics identity
	rec     *metrics.Recorder
	syscall time.Duration // the EBUSY system-call round trip
	thop    time.Duration
	shadow  bool

	injFN  float64 // P(suppress a busy verdict)
	injFP  float64 // P(reject an acceptable IO)
	injRNG *sim.RNG

	// Miscalibration fault injection: every predicted wait becomes
	// wait×misScale + misBias before it is compared or returned. Unlike
	// injFN/injFP's coin flips this distorts the prediction itself — the
	// §8.1 "profile goes stale" failure, where the predictor is wrong in
	// a structured way rather than randomly.
	misBias  time.Duration
	misScale float64 // 0 = no scaling

	acc       Accuracy
	accepted  uint64
	rejected  uint64 // at admission
	cancelled uint64 // late EBUSY after acceptance (MittCFQ)

	replies busyReplies
}

func newKernel(eng *sim.Engine, res metrics.Resource, opt Options) kernel {
	return kernel{eng: eng, res: res, syscall: opt.SyscallCost, thop: opt.Thop, shadow: opt.Shadow}
}

// verdict is one admitted IO's admission record, embedded in the layer's
// pooled completion op and scored by complete.
type verdict struct {
	hasSLO  bool
	rawBusy bool // the prediction's verdict before injection
	wait    time.Duration
	svc     time.Duration
	prev    func(*blockio.Request)
	onDone  func(error)
}

// SetRecorder attaches a metrics recorder (nil disables, the default).
func (k *kernel) SetRecorder(rec *metrics.Recorder) { k.rec = rec }

// SetErrorInjection enables §7.7 fault injection: a busy verdict is
// suppressed with probability fnRate, an acceptable IO rejected with
// probability fpRate.
func (k *kernel) SetErrorInjection(fnRate, fpRate float64, rng *sim.RNG) {
	k.injFN, k.injFP, k.injRNG = fnRate, fpRate, rng
}

// SetMiscalibration distorts every wait prediction to wait×scale + bias
// (scale 0 = no scaling; (0,0) restores the calibrated predictor). This is
// the §8.1 stale-profile fault: the predictor is wrong in a structured way.
func (k *kernel) SetMiscalibration(bias time.Duration, scale float64) {
	k.misBias, k.misScale = bias, scale
}

// Accuracy returns shadow-mode counters.
func (k *kernel) Accuracy() Accuracy { return k.acc }

// Counts returns accepted/rejected totals.
func (k *kernel) Counts() (accepted, rejected uint64) { return k.accepted, k.rejected }

// admit applies the §3.3 rule to req: it stamps the (miscalibrated) wait
// and the service prediction on the request, then either schedules EBUSY
// and returns false, or counts the IO admitted and returns its verdict,
// which captures req's current OnComplete as prev. In shadow mode the busy
// verdict is recorded on the request instead of enforced.
func (k *kernel) admit(req *blockio.Request, wait, svc time.Duration, onDone func(error)) (verdict, bool) {
	if req.SubmitTime == 0 {
		req.SubmitTime = k.eng.Now()
	}
	wait = k.adjust(wait)
	req.PredictedWait, req.PredictedService = wait, svc
	v := verdict{hasSLO: req.Deadline > blockio.NoDeadline, wait: wait, svc: svc, onDone: onDone}
	v.rawBusy = v.hasSLO && wait > k.threshold(req.Deadline)
	if v.hasSLO {
		if k.shadow {
			req.ShadowBusy = v.rawBusy
			if v.rawBusy {
				k.rec.ShadowBusy(k.res)
			}
		} else if k.rejects(v.rawBusy) {
			// Fast rejection: the IO is never queued (§3.3 "the rejected
			// request is not queued; it is automatically cancelled").
			k.reject(req, onDone, wait, false)
			return verdict{}, false
		}
	}
	k.accepted++
	k.rec.Admitted(k.res, req)
	v.prev = req.OnComplete
	return v, true
}

// reject is the one EBUSY path: it counts the rejection (late marks a
// cancellation after acceptance) and delivers a BusyError carrying wait
// after the syscall round trip.
func (k *kernel) reject(req *blockio.Request, onDone func(error), wait time.Duration, late bool) {
	if late {
		k.cancelled++
	} else {
		k.rejected++
	}
	k.rec.Rejected(k.res, req, wait, late)
	k.replies.deliver(k.eng, k.syscall, onDone, &BusyError{PredictedWait: wait})
}

// complete scores an admitted IO's prediction against its measured wait
// (shadow accuracy and the metrics histogram), then runs the request's
// previous completion hook and hands the device's verdict to the owner.
func (k *kernel) complete(v *verdict, r *blockio.Request) {
	if (v.hasSLO && k.shadow) || k.rec != nil {
		actualWait := r.Latency() - v.svc
		if actualWait < 0 {
			actualWait = 0
		}
		if v.hasSLO && k.shadow {
			k.observe(v.rawBusy, v.wait, actualWait, r.Deadline)
		}
		k.rec.Prediction(k.res, r, v.wait, actualWait)
	}
	err := r.Err // read before prev: the previous hook may recycle r
	if v.prev != nil {
		v.prev(r)
	}
	v.onDone(err)
}

// adjust applies the injected miscalibration to a predicted wait. Both
// knobs zero (the default) returns wait unchanged through a single branch.
func (k *kernel) adjust(wait time.Duration) time.Duration {
	if k.misBias == 0 && k.misScale == 0 {
		return wait
	}
	if k.misScale != 0 {
		wait = time.Duration(float64(wait) * k.misScale)
	}
	wait += k.misBias
	if wait < 0 {
		wait = 0
	}
	return wait
}

// rejects converts the raw busy prediction into the effective decision,
// applying injected errors.
func (k *kernel) rejects(busy bool) bool {
	if busy && k.injFN > 0 && k.injRNG != nil && k.injRNG.Bool(k.injFN) {
		return false
	}
	if !busy && k.injFP > 0 && k.injRNG != nil && k.injRNG.Bool(k.injFP) {
		return true
	}
	return busy
}

// threshold returns the admission bound for a deadline.
func (k *kernel) threshold(deadline time.Duration) time.Duration {
	return deadline + k.thop
}

// observe records shadow-mode accuracy for a completed IO. verdictBusy is
// the *raw* prediction (before injection); actualWait and predictedWait are
// the measured and predicted queueing delays.
func (k *kernel) observe(verdictBusy bool, predictedWait, actualWait, deadline time.Duration) {
	violated := actualWait > k.threshold(deadline)
	switch {
	case verdictBusy && violated:
		k.acc.TruePos++
	case verdictBusy && !violated:
		k.acc.FalsePos++
	case !verdictBusy && violated:
		k.acc.FalseNeg++
	default:
		k.acc.TrueNeg++
	}
	diff := actualWait - predictedWait
	if diff < 0 {
		diff = -diff
	}
	k.acc.SumAbsDiff += diff
}

// busyReplies pools the deferred EBUSY deliveries (the syscall-cost timer
// callback) so a rejection allocates only its BusyError, which escapes to
// the caller and cannot be pooled.
type busyReplies struct {
	pool sim.Freelist[busyReply]
}

type busyReply struct {
	c      *busyReplies
	onDone func(error)
	err    error
	fn     func() // pre-bound r.fire
}

func (r *busyReply) Bind() { r.fn = r.fire }

func (r *busyReply) fire() {
	c, onDone, err := r.c, r.onDone, r.err
	r.onDone, r.err = nil, nil
	c.pool.Release(r)
	onDone(err)
}

// deliver schedules onDone(err) after the syscall round trip.
func (c *busyReplies) deliver(eng *sim.Engine, d time.Duration, onDone func(error), err error) {
	r := sim.Acquire(&c.pool)
	r.c, r.onDone, r.err = c, onDone, err
	eng.After(d, r.fn)
}
