package cluster

import (
	"errors"
	"math"
	"time"

	"mittos/internal/core"
	"mittos/internal/sim"
)

// wasted reports whether a late (already-superseded) reply represents an IO
// the cluster actually executed and threw away. Fast refusals — EBUSY,
// node-down, and revoked-before-dispatch — never reached a device, so they
// are not waste.
func wasted(err error) bool {
	return !core.IsBusy(err) && !errors.Is(err, ErrNodeDown) && !errors.Is(err, ErrRevoked)
}

// GetResult reports one finished user-level get.
type GetResult struct {
	Latency time.Duration
	// Tries is how many replica attempts the winning path made.
	Tries int
	// Err is non-nil only when every path failed (e.g. all replicas
	// returned EBUSY and error fallback was disabled).
	Err error
}

// Strategy issues one client get against the cluster and reports the
// user-observed completion. Implementations are the paper's comparison
// points (§7.2).
type Strategy interface {
	Name() string
	Get(key int64, onDone func(GetResult))
}

// getReq is the state every pooled get op shares: its owner, the key and
// its replica set, the start time, and the user's callback.
type getReq struct {
	c        *Cluster
	key      int64
	start    sim.Time
	onDone   func(GetResult)
	replicas []int // scratch, reused across gets
}

// begin binds a freshly acquired op to one get.
func (r *getReq) begin(c *Cluster, key int64, onDone func(GetResult)) {
	r.c, r.key, r.start, r.onDone = c, key, c.Eng.Now(), onDone
	r.replicas = c.ReplicasInto(key, r.replicas)
}

// finish is the shared terminal: it builds the user-visible result and
// takes the callback off the op, so the op can be recycled before the
// callback runs.
func (r *getReq) finish(tries int, err error) (func(GetResult), GetResult) {
	onDone := r.onDone
	r.onDone = nil
	return onDone, GetResult{Latency: r.c.Eng.Now().Sub(r.start), Tries: tries, Err: err}
}

// getOp is the pooled per-get kernel under Base, Clone and Hedged: copies
// go out to distinct replicas through one pre-bound reply callback, and the
// first decisive reply wins. A node-down refusal is not decisive while a
// sibling copy is still out; under Hedged it sends the hedge at once. A
// copy that loses the race still holds a reference, and if its IO executed
// it counts toward the strategy's WastedIOs. Tries is the number of copies
// sent. Ops pool on the cluster's shared Pools bundle (not the strategy —
// strategies are per-leg) and rebind their owner at acquire.
type getOp struct {
	getReq
	wastedIOs *uint64 // the strategy's WastedIOs; nil for Base, whose one copy never loses
	hedges    *uint64 // HedgedStrategy.Hedges; nil for strategies that never hedge
	won       bool
	sent      int         // copies sent so far
	pending   int         // copies still awaiting a reply
	refs      int         // replies still due plus the hedge timer
	replyFn   func(error) // pre-bound op.reply
	timerFn   func()      // pre-bound op.timerFire
}

func (op *getOp) bind() {
	op.replyFn = op.reply
	op.timerFn = op.timerFire
}

func (c *Cluster) newGetOp(key int64, onDone func(GetResult), wastedIOs, hedges *uint64) *getOp {
	op := acquire(&c.pools.getOps)
	op.begin(c, key, onDone)
	op.wastedIOs, op.hedges = wastedIOs, hedges
	op.sent, op.pending = 0, 0
	return op
}

// send issues one more copy of the get, to node.
func (op *getOp) send(node int) {
	op.sent++
	op.pending++
	op.refs++
	op.c.ReplicaCall(node, op.key, 0, op.replyFn)
}

func (op *getOp) deref() {
	op.refs--
	if op.refs > 0 {
		return
	}
	op.won = false
	op.c.pools.getOps.release(op)
}

func (op *getOp) reply(err error) {
	if op.won {
		if wasted(err) {
			*op.wastedIOs++ // the losing copy's IO ran to completion
		}
		op.deref()
		return
	}
	op.pending--
	if errors.Is(err, ErrNodeDown) {
		if op.hedges != nil && op.sent == 1 {
			// Primary crashed: don't wait out HedgeAfter, go to the
			// secondary now. The timer finds sent == 2 and stays quiet, so
			// no third copy ever goes out.
			op.send(op.replicas[1])
			op.deref()
			return
		}
		if op.pending > 0 {
			op.deref()
			return // that node crashed mid-flight; the sibling decides
		}
	}
	op.won = true
	// A primary that completes after a hedge went out must not report
	// Tries: 1, hiding the duplicated IO from the per-try accounting.
	onDone, res := op.finish(op.sent, err)
	op.deref()
	onDone(res)
}

// timerFire is the hedge timer: an engine-owned recycled event that cannot
// be cancelled, so it holds a reference and stays quiet when it finds the
// get already hedged or won.
func (op *getOp) timerFire() {
	if !op.won && op.sent == 1 {
		*op.hedges++
		op.send(op.replicas[1])
	}
	op.deref()
}

// BaseStrategy is vanilla MongoDB on vanilla Linux: ask the primary
// replica, wait however long it takes.
type BaseStrategy struct {
	C *Cluster
}

// Name implements Strategy.
func (s *BaseStrategy) Name() string { return "Base" }

// Get implements Strategy.
func (s *BaseStrategy) Get(key int64, onDone func(GetResult)) {
	op := s.C.newGetOp(key, onDone, nil, nil)
	op.send(op.replicas[0])
}

// TimeoutStrategy is the "AppTO" comparison: cancel and retry on the next
// replica after TO, with the timeout disabled on the final try so users do
// not see read errors (§7.2). The timed-out attempt is revoked: if its IO is
// still in the replica's scheduler queues the cancel drops it; an IO already
// on the device runs to completion and is discarded (counted in WastedIOs).
// A replica that refuses because it crashed triggers an immediate retry on
// the next one instead of burning the full timeout.
type TimeoutStrategy struct {
	C  *Cluster
	TO time.Duration

	Retries uint64
	// WastedIOs counts abandoned attempts whose IO the cluster executed
	// anyway — the revocation arrived too late to drop it from a queue.
	WastedIOs uint64
}

// timeoutOp is the pooled per-get context. Each retry round is a separate
// pooled timeoutAttempt, because a superseded attempt's callbacks (a late
// completion, or the drop of its revoked IO) can still be in flight while
// the next round runs; the op is reclaimed when its last attempt resolves.
type timeoutOp struct {
	getReq
	s    *TimeoutStrategy
	refs int // live attempts holding this op
}

// timeoutAttempt is one retry round: request hop, serve callback, response
// hop, and (except on the final round) the retry timer. The timer is an
// engine-owned recycled event that cannot be cancelled, so it holds a
// reference and no-ops when it finds the attempt already resolved.
type timeoutAttempt struct {
	op   *timeoutOp
	idx  int
	done bool
	h    *ServeHandle
	err  error
	refs int // pending callbacks: the hop/serve/reply chain plus the timer

	sendFn  func()      // pre-bound a.send: request hop
	serveFn func(error) // pre-bound a.serve: serve completion
	replyFn func()      // pre-bound a.reply: response hop
	timerFn func()      // pre-bound a.timerFire: retry timer
}

func (op *timeoutOp) bind() {}

func (a *timeoutAttempt) bind() {
	a.sendFn = a.send
	a.serveFn = a.serve
	a.replyFn = a.reply
	a.timerFn = a.timerFire
}

// Name implements Strategy.
func (s *TimeoutStrategy) Name() string { return "AppTO" }

// Get implements Strategy.
func (s *TimeoutStrategy) Get(key int64, onDone func(GetResult)) {
	op := acquire(&s.C.pools.timeoutOps)
	op.s = s // pooled across fleets: rebind the owner
	op.begin(s.C, key, onDone)
	op.attempt(0)
}

func (op *timeoutOp) attempt(i int) {
	s := op.s
	a := acquire(&s.C.pools.timeoutAtts)
	a.op, a.idx = op, i
	op.refs++
	if i < len(op.replicas)-1 {
		a.refs = 2 // the callback chain plus the retry timer
		s.C.Eng.After(s.TO, a.timerFn)
	} else {
		a.refs = 1 // final try: the timeout is disabled (§7.2)
	}
	s.C.Net.Send(a.sendFn)
}

func (op *timeoutOp) deref() {
	op.refs--
	if op.refs > 0 {
		return
	}
	op.onDone = nil
	op.c.pools.timeoutOps.release(op)
}

func (a *timeoutAttempt) deref() {
	a.refs--
	if a.refs > 0 {
		return
	}
	op := a.op
	a.op, a.h, a.err = nil, nil, nil
	a.done = false
	op.c.pools.timeoutAtts.release(a)
	op.deref()
}

// send is the request hop landing at the replica.
func (a *timeoutAttempt) send() {
	if a.done {
		// Timed out before the request hop even landed: nothing was served.
		a.deref()
		return
	}
	op := a.op
	a.h = op.c.Nodes[op.replicas[a.idx]].ServeGetCancelable(op.key, 0, a.serveFn)
}

func (a *timeoutAttempt) serve(err error) {
	if errors.Is(err, ErrRevoked) {
		// The revocation dropped the IO before it ran: the abandoned
		// attempt resolves silently — no reply hop, no wasted IO. A
		// mid-run revocation already Cancel+Done'd the handle in timerFire;
		// the handle is still held only when the teardown harvest revokes a
		// stranded attempt, and must go back to the pool with it.
		if a.h != nil {
			a.h.Done()
			a.h = nil
		}
		a.deref()
		return
	}
	a.err = err
	a.op.c.Net.Send(a.replyFn)
}

// reply is the response hop landing back at the client.
func (a *timeoutAttempt) reply() {
	op, err := a.op, a.err
	s := op.s
	if a.done {
		if wasted(err) {
			s.WastedIOs++ // revoked too late: the IO ran
		}
		a.deref()
		return
	}
	a.done = true
	if a.h != nil {
		a.h.Done()
		a.h = nil
	}
	if errors.Is(err, ErrNodeDown) && a.idx < len(op.replicas)-1 {
		// Crashed replica: its refusal came back in one RTT; retry now
		// rather than waiting out TO.
		s.Retries++
		op.attempt(a.idx + 1)
		a.deref()
		return
	}
	onDone, res := op.finish(a.idx+1, err)
	a.deref()
	onDone(res)
}

func (a *timeoutAttempt) timerFire() {
	op := a.op
	if !a.done {
		a.done = true
		op.s.Retries++
		// Abandon the attempt AND revoke its IO, so the stale IO does not
		// compete with every later attempt for the device.
		if a.h != nil {
			a.h.Cancel()
			a.h.Done()
			a.h = nil
		}
		op.attempt(a.idx + 1)
	}
	a.deref()
}

// CloneStrategy duplicates every request to two random replicas and takes
// the first response — "this proactive speculation however doubles the IO
// intensity" (§1).
type CloneStrategy struct {
	C   *Cluster
	RNG *sim.RNG

	// WastedIOs counts losing copies whose IO the cluster executed anyway.
	WastedIOs uint64

	live []int // selection scratch, reused across gets
}

// Name implements Strategy.
func (s *CloneStrategy) Name() string { return "Clone" }

// Get implements Strategy.
func (s *CloneStrategy) Get(key int64, onDone func(GetResult)) {
	op := s.C.newGetOp(key, onDone, &s.WastedIOs, nil)
	// Select among live replicas only; cloning to a crashed node would
	// just burn an RTT on a refusal. With every node up this filter is
	// the identity and the random draws are unchanged.
	s.live = s.live[:0]
	for _, r := range op.replicas {
		if !s.C.Nodes[r].Down() {
			s.live = append(s.live, r)
		}
	}
	switch len(s.live) {
	case 0:
		// Whole replica set down: fail fast via the primary's refusal.
		op.send(op.replicas[0])
	case 1:
		// One survivor: a clone pair is impossible (the old code's
		// RNG.Intn(0) panic); send a single copy.
		op.send(s.live[0])
	default:
		// Two distinct random replicas out of the live choices.
		i := s.RNG.Intn(len(s.live))
		j := s.RNG.Intn(len(s.live) - 1)
		if j >= i {
			j++
		}
		op.send(s.live[i])
		op.send(s.live[j])
	}
}

// HedgedStrategy sends a secondary request only after the first has been
// outstanding longer than the expected p95 latency (Dean & Barroso;
// §7.2). Neither request is cancelled; the loser's IO is wasted work
// (WastedIOs). A primary that refuses because it crashed fails over to the
// secondary immediately instead of waiting out the hedge delay.
type HedgedStrategy struct {
	C          *Cluster
	HedgeAfter time.Duration

	Hedges uint64
	// WastedIOs counts losing copies whose IO the cluster executed anyway.
	WastedIOs uint64
}

// Name implements Strategy.
func (s *HedgedStrategy) Name() string { return "Hedged" }

// Get implements Strategy.
func (s *HedgedStrategy) Get(key int64, onDone func(GetResult)) {
	op := s.C.newGetOp(key, onDone, &s.WastedIOs, &s.Hedges)
	op.refs++ // the hedge timer
	s.C.Eng.After(s.HedgeAfter, op.timerFn)
	op.send(op.replicas[0])
}

// SnitchStrategy keeps an EWMA of each replica's recent latency and always
// asks the currently-fastest one — Cassandra's dynamic snitch (§7.8.3).
type SnitchStrategy struct {
	C *Cluster
	// Alpha is the EWMA weight of new samples.
	Alpha float64

	ewma     map[int]float64
	replicas []int // scratch, reused across gets
}

// Name implements Strategy.
func (s *SnitchStrategy) Name() string { return "Snitch" }

// Get implements Strategy.
func (s *SnitchStrategy) Get(key int64, onDone func(GetResult)) {
	if s.ewma == nil {
		s.ewma = make(map[int]float64)
	}
	if s.Alpha <= 0 {
		s.Alpha = 0.3
	}
	start := s.C.Eng.Now()
	s.replicas = s.C.ReplicasInto(key, s.replicas)
	best := s.replicas[0]
	bestScore := math.MaxFloat64
	for _, r := range s.replicas {
		if s.C.Nodes[r].Down() {
			continue // a crashed replica's fast refusals would look "fast"
		}
		score, seen := s.ewma[r]
		if !seen {
			score = 0 // explore unknown replicas first
		}
		if score < bestScore {
			best, bestScore = r, score
		}
	}
	s.C.ReplicaCall(best, key, 0, func(err error) {
		lat := s.C.Eng.Now().Sub(start)
		prev, seen := s.ewma[best]
		if !seen {
			prev = float64(lat)
		}
		s.ewma[best] = prev*(1-s.Alpha) + float64(lat)*s.Alpha
		onDone(GetResult{Latency: lat, Tries: 1, Err: err})
	})
}

// C3Strategy implements C3's replica ranking (Suresh et al., NSDI'15): an
// EWMA of response latencies plus a cubic penalty on the server-reported
// queue size, both piggybacked on responses. That feedback loop is exactly
// why the paper finds C3 helpless against sub-second burstiness (§7.8.3):
// the queue-size estimate a client holds is as old as the last response it
// received from that replica, so a burst that arrives and leaves within a
// second is never observed in time.
type C3Strategy struct {
	C     *Cluster
	Alpha float64

	lat      map[int]float64  // EWMA response latency per replica
	qEst     map[int]float64  // server-reported queue size (stale feedback)
	qAt      map[int]sim.Time // when that feedback was received
	out      map[int]int      // client-local concurrency compensation
	decay    time.Duration    // feedback aging constant (C3's rate control)
	replicas []int            // scratch, reused across gets
}

// Name implements Strategy.
func (s *C3Strategy) Name() string { return "C3" }

// Get implements Strategy.
func (s *C3Strategy) Get(key int64, onDone func(GetResult)) {
	if s.lat == nil {
		s.lat = make(map[int]float64)
		s.qEst = make(map[int]float64)
		s.qAt = make(map[int]sim.Time)
		s.out = make(map[int]int)
	}
	if s.Alpha <= 0 {
		s.Alpha = 0.3
	}
	if s.decay <= 0 {
		s.decay = 2 * time.Second
	}
	start := s.C.Eng.Now()
	s.replicas = s.C.ReplicasInto(key, s.replicas)
	best := s.replicas[0]
	bestScore := math.MaxFloat64
	for _, r := range s.replicas {
		if s.C.Nodes[r].Down() {
			continue // crashed replicas drop out of the ranking
		}
		l := s.lat[r]
		// C3's concurrency-compensated queue estimate: the stale
		// server-reported depth (aged — C3's rate control lets shunned
		// replicas be retried after a while) plus our own outstanding.
		age := float64(start.Sub(s.qAt[r])) / float64(s.decay)
		stale := s.qEst[r] / (1 + age)
		q := stale + float64(s.out[r]) + 1
		score := l * q * q * q // the cubic queue penalty
		if score < bestScore {
			best, bestScore = r, score
		}
	}
	s.out[best]++
	node := s.C.Nodes[best]
	s.C.Net.Send(func() {
		node.ServeGet(key, 0, func(err error) {
			// The response piggybacks the server's queue depth *now* —
			// by the time the client reads it, it is one hop stale, and
			// it only refreshes when this replica is asked again.
			reported := float64(node.OutstandingIOs())
			s.C.Net.Send(func() {
				s.out[best]--
				s.qEst[best] = reported
				s.qAt[best] = s.C.Eng.Now()
				lat := s.C.Eng.Now().Sub(start)
				prev, seen := s.lat[best]
				if !seen {
					prev = float64(lat)
				}
				s.lat[best] = prev*(1-s.Alpha) + float64(lat)*s.Alpha
				onDone(GetResult{Latency: lat, Tries: 1, Err: err})
			})
		})
	})
}

// MittOSStrategy is the paper's contribution at the client: send with the
// deadline SLO, failover instantly on EBUSY — or on a crashed replica's
// refusal, which is just as fast — and disable the deadline on the final
// try so the user never sees an error (§5). With UseWaitHint the
// §7.8.1/§8.1 extension kicks in: when every replica rejected, the 4th try
// targets the one that predicted the shortest wait.
type MittOSStrategy struct {
	C        *Cluster
	Deadline time.Duration
	// UseWaitHint enables the least-busy 4th retry extension.
	UseWaitHint bool
	// RetryOverhead models the application's failover path cost. The
	// paper's exceptionless path makes this ~0; C++ exception unwinding
	// would add 200µs (§5) — kept as an ablation knob.
	RetryOverhead time.Duration

	Failovers uint64
	LastDitch uint64
}

// mittOp is the pooled per-get context: attempts are strictly sequential
// (at most one replica call outstanding), so one context with pre-bound
// callbacks and per-op wait scratch covers the whole failover chain.
type mittOp struct {
	getReq
	s       *MittOSStrategy
	idx     int
	err     error       // the refusal carried across a RetryOverhead delay
	replyFn func(error) // pre-bound op.reply
	lastFn  func(error) // pre-bound op.lastDitchReply
	nextFn  func()      // pre-bound op.next: post-refusal failover step
	waits   []time.Duration
}

func (op *mittOp) bind() {
	op.replyFn = op.reply
	op.lastFn = op.lastDitchReply
	op.nextFn = op.next
}

// Name implements Strategy.
func (s *MittOSStrategy) Name() string { return "MittOS" }

// Get implements Strategy.
func (s *MittOSStrategy) Get(key int64, onDone func(GetResult)) {
	op := acquire(&s.C.pools.mittOps)
	op.s = s // pooled across fleets: rebind the owner
	op.begin(s.C, key, onDone)
	op.idx = 0
	op.waits = op.waits[:0]
	for range op.replicas {
		op.waits = append(op.waits, 0)
	}
	op.attempt()
}

func (op *mittOp) attempt() {
	s := op.s
	deadline := s.Deadline
	if op.idx == len(op.replicas)-1 && !s.UseWaitHint {
		deadline = 0 // 3rd try disables the deadline (§5)
	}
	s.C.ReplicaCall(op.replicas[op.idx], op.key, deadline, op.replyFn)
}

func (op *mittOp) reply(err error) {
	s := op.s
	down := errors.Is(err, ErrNodeDown)
	if core.IsBusy(err) || down {
		if be, ok := err.(*core.BusyError); ok {
			op.waits[op.idx] = be.PredictedWait
		} else if down {
			// A crashed replica is "busy forever": never the least-busy
			// pick below.
			op.waits[op.idx] = time.Duration(math.MaxInt64)
		}
		s.Failovers++
		op.err = err
		if s.RetryOverhead > 0 {
			s.C.Eng.After(s.RetryOverhead, op.nextFn)
			return
		}
		op.next()
		return
	}
	op.deliver(op.idx+1, err)
}

// next is the failover step after a refusal (EBUSY or node-down), possibly
// delayed by RetryOverhead.
func (op *mittOp) next() {
	s := op.s
	if op.idx < len(op.replicas)-1 {
		op.idx++
		op.attempt()
		return
	}
	err := op.err
	if errors.Is(err, ErrNodeDown) && !s.UseWaitHint {
		// The deadline was already disabled on this final try; a crash
		// leaves nothing to fail over to.
		op.deliver(op.idx+1, err)
		return
	}
	// All replicas rejected under the wait-hint extension: go to the
	// least busy one with the deadline disabled, skipping crashed nodes.
	s.LastDitch++
	best := -1
	for j := range op.waits {
		if s.C.Nodes[op.replicas[j]].Down() {
			continue
		}
		if best < 0 || op.waits[j] < op.waits[best] {
			best = j
		}
	}
	if best < 0 {
		// The whole replica set is down.
		op.deliver(len(op.replicas), err)
		return
	}
	s.C.ReplicaCall(op.replicas[best], op.key, 0, op.lastFn)
}

func (op *mittOp) lastDitchReply(err error) {
	op.deliver(len(op.replicas)+1, err)
}

func (op *mittOp) deliver(tries int, err error) {
	onDone, res := op.finish(tries, err)
	op.err = nil
	op.c.pools.mittOps.release(op)
	onDone(res)
}
