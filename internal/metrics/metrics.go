// Package metrics is the observability substrate for the simulated storage
// stack: a zero-allocation-on-hot-path registry of counters, queue-depth
// gauges, and fixed-bucket latency histograms keyed by (resource, op), plus
// a structured per-IO span tracer (see span.go).
//
// Design constraints, in order:
//
//  1. Metrics off must cost nothing measurable. Every layer holds a
//     *Recorder and calls it unconditionally; a nil *Recorder is the
//     disabled state and every method no-ops on a nil receiver. Using a
//     concrete pointer rather than an interface keeps the disabled path a
//     single predictable branch and avoids the typed-nil interface trap.
//  2. Metrics on must not allocate per IO. All counters, gauges, and
//     histograms live in fixed arrays sized by the Resource/Counter/
//     HistKind enums; histogram buckets are power-of-two nanosecond ranges
//     indexed with bits.Len64. Only span tracing (opt-in via TraceIOs)
//     allocates, because it materializes one record per IO by design.
//  3. Output must be deterministic. Snapshots iterate enum-ordered arrays,
//     never Go maps, so the rendered dump is byte-identical run to run —
//     the same property the golden tests enforce for experiment output.
//
// One Set belongs to one simulation engine (one experiment leg) and is not
// goroutine-safe; legs are single-threaded by construction (see
// internal/sim), so no synchronization is needed or wanted.
package metrics

import (
	"math/bits"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// Resource identifies one instrumented layer of the stack.
type Resource uint8

// Instrumented resources. RNode is the node's storage-stack boundary — the
// point where an IO enters SubmitSLO (or the raw block layer, for noise and
// background IO) and where its final verdict is observed.
const (
	RNode Resource = iota
	RSchedNoop
	RSchedCFQ
	RDisk
	RSSD
	RCache
	RMittNoop
	RMittCFQ
	RMittSSD
	RMittCache
	numResources
)

var resourceNames = [numResources]string{
	"node", "sched-noop", "sched-cfq", "disk", "ssd", "cache",
	"mittnoop", "mittcfq", "mittssd", "mittcache",
}

// String names the resource.
func (r Resource) String() string {
	if int(r) < len(resourceNames) {
		return resourceNames[r]
	}
	return "resource(?)"
}

// Counter identifies one event count within a resource.
type Counter uint8

// Counters. Admission counters (CAccepted..CShadowBusy) are meaningful on
// the Mitt* resources; CDispatched on schedulers; the cache counters on
// RCache; CSubmitted/CCompleted/CRejected* on every resource that sees the
// request flow.
const (
	CSubmitted    Counter = iota // IOs entering the resource
	CCompleted                   // IOs that finished normally
	CAccepted                    // admission decisions that let the IO through
	CRejected                    // fast EBUSY at admission
	CRejectedLate                // EBUSY after acceptance (MittCFQ cancellation)
	CShadowBusy                  // shadow-mode busy verdicts (recorded, not enforced)
	CDropped                     // revoked IOs dropped by a scheduler before dispatch
	CDispatched                  // IOs handed from a scheduler to the device
	CCacheHit
	CCacheMiss
	CEviction
	CPrefetch
	// CSLOMet / CSLOMissed count client-side user-request SLO verdicts
	// (recorded on RNode by cluster clients with ClientConfig.SLO set) —
	// the load sweep's attainment numerator and denominator complement.
	CSLOMet
	CSLOMissed
	numCounters
)

var counterNames = [numCounters]string{
	"submitted", "completed", "accepted", "rejected", "rejected-late",
	"shadow-busy", "dropped", "dispatched", "cache-hit", "cache-miss",
	"evictions", "prefetches", "slo-met", "slo-missed",
}

// String names the counter.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter(?)"
}

// HistKind identifies one latency distribution within a resource.
type HistKind uint8

// Histogram kinds, all in nanoseconds of virtual time.
const (
	HLatency       HistKind = iota // submit → terminal verdict at the node boundary
	HQueueWait                     // scheduler residency: sched enter → dispatch
	HDevice                        // device residency: device enter → completion
	HPredictedWait                 // predicted queueing wait at each admission decision
	HPredictErr                    // |actual − predicted| wait of completed admitted IOs (§7.6)
	// Put-path stages (SLO-aware writes): group-commit queueing above the
	// stack, WAL group service, enqueue→memtable-ack per put, and the
	// user-visible quorum latency of replicated puts.
	HPutWalQueue
	HPutWalService
	HPutMemAck
	HPutQuorum
	numHistKinds
)

var histKindNames = [numHistKinds]string{
	"latency", "queue-wait", "device", "predicted-wait", "predict-err",
	"put-wal-queue", "put-wal-service", "put-mem-ack", "put-quorum",
}

// String names the histogram kind.
func (k HistKind) String() string {
	if int(k) < len(histKindNames) {
		return histKindNames[k]
	}
	return "hist(?)"
}

// numOps dimensions histograms by blockio.Op (read/write/erase).
const numOps = 3

// numBuckets covers [1ns, ~9h) in power-of-two buckets: bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// Bucket 0 holds exact zeros. 45 buckets reach 2^44 ns ≈ 4.9h, far past any
// simulated latency; larger values clamp into the last bucket.
const numBuckets = 45

// Hist is a fixed-bucket latency histogram. The zero value is ready to use.
// Observe is allocation-free; quantiles are approximate (bucket upper edge,
// clamped to the observed min/max), which is plenty for tail reporting at
// power-of-two resolution.
type Hist struct {
	N       uint64
	Sum     int64 // nanoseconds
	Min     int64
	Max     int64
	Buckets [numBuckets]uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Hist) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.N++
	h.Sum += ns
	if h.N == 1 || ns < h.Min {
		h.Min = ns
	}
	if ns > h.Max {
		h.Max = ns
	}
	i := bits.Len64(uint64(ns))
	if i >= numBuckets {
		i = numBuckets - 1
	}
	h.Buckets[i]++
}

// Mean returns the average observation in nanoseconds (0 if empty).
func (h *Hist) Mean() int64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / int64(h.N)
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) in
// nanoseconds: the upper edge of the bucket holding the rank, clamped to
// the observed [Min, Max].
func (h *Hist) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.N-1)) // 0-based rank
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.Buckets[i]
		if cum > rank {
			var est int64
			if i > 0 {
				est = int64(1)<<uint(i) - 1 // upper edge of [2^(i-1), 2^i)
			}
			if est > h.Max {
				est = h.Max
			}
			if est < h.Min {
				est = h.Min
			}
			return est
		}
	}
	return h.Max
}

// gauge is a current/high-water pair (queue depths).
type gauge struct {
	Cur int64
	Max int64
}

// Set is one engine's worth of metrics: all counters, gauges, histograms,
// and spans for one experiment leg. Construct with New; share the returned
// per-node Recorders across the leg's layers.
type Set struct {
	eng *sim.Engine

	counters [numResources][numCounters]uint64
	gauges   [numResources]gauge
	hists    [numResources][numHistKinds][numOps]Hist

	// Signed prediction bias Σ(actual − predicted) wait per resource, the
	// companion to the absolute-error histogram: a large |bias| with small
	// mean error means the predictor is consistently early or late.
	predBias [numResources]int64
	predN    [numResources]uint64

	// Span tracing (span.go). traceMax < 0 means unlimited.
	traceMax     int
	spans        []*Span
	spanIdx      map[*blockio.Request]*Span
	spansDropped uint64

	// violations accumulates invariant breaches detected online (e.g. a
	// request delivering two terminal verdicts). Property tests assert this
	// stays empty.
	violations []string

	recs []Recorder
}

// New builds a Set over the engine. nodes sizes the per-node Recorder pool;
// traceIOs bounds span tracing (0 disables it, < 0 traces every IO).
func New(eng *sim.Engine, nodes, traceIOs int) *Set {
	s := &Set{eng: eng, traceMax: traceIOs}
	if traceIOs != 0 {
		s.spanIdx = make(map[*blockio.Request]*Span)
	}
	if nodes < 1 {
		nodes = 1
	}
	s.recs = make([]Recorder, nodes)
	for i := range s.recs {
		s.recs[i] = Recorder{set: s, node: i}
	}
	return s
}

// Node returns the recorder for node i. A nil Set returns a nil Recorder,
// which is the valid "metrics disabled" recorder — every layer can hold and
// call it unconditionally.
func (s *Set) Node(i int) *Recorder {
	if s == nil {
		return nil
	}
	if i < 0 || i >= len(s.recs) {
		return &Recorder{set: s, node: -1}
	}
	return &s.recs[i]
}

func opIndex(op blockio.Op) int {
	if int(op) >= numOps {
		return numOps - 1
	}
	return int(op)
}

// Recorder is a per-node view of a Set. The nil *Recorder is the disabled
// state: every method is safe — and a near-free early return — on a nil
// receiver, so instrumented layers never branch on "metrics enabled?".
type Recorder struct {
	set  *Set
	node int
}

// Incr bumps one counter.
func (r *Recorder) Incr(res Resource, c Counter) {
	if r == nil {
		return
	}
	r.set.counters[res][c]++
}

// SchedEnter records an IO entering a scheduler queue.
func (r *Recorder) SchedEnter(res Resource, req *blockio.Request) {
	if r == nil {
		return
	}
	s := r.set
	s.counters[res][CSubmitted]++
	g := &s.gauges[res]
	g.Cur++
	if g.Cur > g.Max {
		g.Max = g.Cur
	}
	if sp := s.spanIdx[req]; sp != nil && sp.SchedEnterNs < 0 {
		sp.SchedEnterNs = int64(s.eng.Now())
	}
}

// SchedExit records an IO leaving a scheduler for the device (dispatch).
func (r *Recorder) SchedExit(res Resource, req *blockio.Request) {
	if r == nil {
		return
	}
	s := r.set
	now := s.eng.Now()
	s.counters[res][CDispatched]++
	s.gauges[res].Cur--
	s.hists[res][HQueueWait][opIndex(req.Op)].Observe(now.Sub(req.SubmitTime))
	if sp := s.spanIdx[req]; sp != nil && sp.SchedExitNs < 0 {
		sp.SchedExitNs = int64(now)
	}
}

// SchedDrop records a scheduler discarding a revoked IO before dispatch.
// This is a terminal for the span: the owner revoked the request (tied
// requests, §6) and no completion or EBUSY will ever be delivered.
func (r *Recorder) SchedDrop(res Resource, req *blockio.Request) {
	if r == nil {
		return
	}
	s := r.set
	s.counters[res][CDropped]++
	s.gauges[res].Cur--
	if sp := s.spanIdx[req]; sp != nil {
		sp.terminal(s, "revoked")
		delete(s.spanIdx, req)
	}
}

// SchedRemove records an IO pulled out of a scheduler queue by explicit
// cancellation (MittCFQ's late EBUSY): only the queue-depth gauge moves —
// the rejection itself is counted at the Mitt* layer, and the span's
// terminal verdict arrives with the EBUSY delivery.
func (r *Recorder) SchedRemove(res Resource, req *blockio.Request) {
	if r == nil {
		return
	}
	r.set.gauges[res].Cur--
}

// DevDrop records a device discarding a revoked IO from its queue before
// service — a terminal for the span, like SchedDrop.
func (r *Recorder) DevDrop(res Resource, req *blockio.Request) {
	if r == nil {
		return
	}
	s := r.set
	s.counters[res][CDropped]++
	s.gauges[res].Cur--
	if sp := s.spanIdx[req]; sp != nil {
		sp.terminal(s, "revoked")
		delete(s.spanIdx, req)
	}
}

// DevEnter records an IO arriving at a device queue.
func (r *Recorder) DevEnter(res Resource, req *blockio.Request) {
	if r == nil {
		return
	}
	s := r.set
	s.counters[res][CSubmitted]++
	g := &s.gauges[res]
	g.Cur++
	if g.Cur > g.Max {
		g.Max = g.Cur
	}
	if sp := s.spanIdx[req]; sp != nil && sp.DevEnterNs < 0 {
		sp.DevEnterNs = int64(s.eng.Now())
	}
}

// DevStart records the device beginning actual service of an IO (first
// chip/spindle occupancy). Set-if-unset: striped SSD IOs call it once per
// page and the first page wins.
func (r *Recorder) DevStart(res Resource, req *blockio.Request) {
	if r == nil {
		return
	}
	s := r.set
	if sp := s.spanIdx[req]; sp != nil && sp.DevStartNs < 0 {
		sp.DevStartNs = int64(s.eng.Now())
	}
}

// DevDone records device completion; the device-residency histogram gets
// dispatch → completion (queueing inside the device included).
func (r *Recorder) DevDone(res Resource, req *blockio.Request) {
	if r == nil {
		return
	}
	s := r.set
	s.counters[res][CCompleted]++
	s.gauges[res].Cur--
	s.hists[res][HDevice][opIndex(req.Op)].Observe(req.CompleteTime.Sub(req.DispatchTime))
}

// Admitted records a Mitt* layer letting an IO through, with its predicted
// wait and service time already attached to the request.
func (r *Recorder) Admitted(res Resource, req *blockio.Request) {
	if r == nil {
		return
	}
	s := r.set
	s.counters[res][CAccepted]++
	s.hists[res][HPredictedWait][opIndex(req.Op)].Observe(req.PredictedWait)
	if sp := s.spanIdx[req]; sp != nil {
		sp.PredWaitNs = int64(req.PredictedWait)
		sp.PredSvcNs = int64(req.PredictedService)
	}
}

// Rejected records an EBUSY verdict: predicted is the wait estimate that
// broke the deadline; late marks MittCFQ's post-acceptance cancellation.
func (r *Recorder) Rejected(res Resource, req *blockio.Request, predicted time.Duration, late bool) {
	if r == nil {
		return
	}
	s := r.set
	if late {
		s.counters[res][CRejectedLate]++
	} else {
		s.counters[res][CRejected]++
	}
	s.hists[res][HPredictedWait][opIndex(req.Op)].Observe(predicted)
	if sp := s.spanIdx[req]; sp != nil {
		if sp.PredWaitNs < 0 {
			sp.PredWaitNs = int64(predicted)
		}
		sp.RejectLate = late
	}
}

// Observe records one duration in an arbitrary (resource, kind, op)
// histogram — the hook for stage latencies measured above the block layer,
// like the put path's wal-queue/mem-ack/quorum stages.
func (r *Recorder) Observe(res Resource, k HistKind, op blockio.Op, d time.Duration) {
	if r == nil {
		return
	}
	r.set.hists[res][k][opIndex(op)].Observe(d)
}

// ShadowBusy records a shadow-mode busy verdict (§7.6): the IO proceeds,
// only the verdict is counted.
func (r *Recorder) ShadowBusy(res Resource) {
	if r == nil {
		return
	}
	r.set.counters[res][CShadowBusy]++
}

// Prediction scores one completed, admitted IO: the §7.6 accuracy metric as
// a runtime histogram. actual is the measured queueing wait (latency minus
// service), predicted the admission-time estimate.
func (r *Recorder) Prediction(res Resource, req *blockio.Request, predicted, actual time.Duration) {
	if r == nil {
		return
	}
	s := r.set
	diff := actual - predicted
	s.predBias[res] += int64(diff)
	s.predN[res]++
	if diff < 0 {
		diff = -diff
	}
	s.hists[res][HPredictErr][opIndex(req.Op)].Observe(diff)
	if sp := s.spanIdx[req]; sp != nil {
		sp.ActualWaitNs = int64(actual)
	}
}
