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

// getPolicy is what a get strategy adds to the shared get kernel: what to
// do with a reply that arrives before the get is won, and what to do when
// its timer fires before then. Everything else — the call chain, the
// exactly-once verdict, late-reply waste, pooling — is getOp's.
type getPolicy interface {
	Strategy
	onReply(op *getOp, cp *getCopy, err error)
	onTimer(op *getOp)
}

// getOp is the pooled per-get kernel every get strategy runs on. Copies go
// out through pooled getCopy chains (request hop, serve, reply hop); the
// policy's onReply sees each reply that arrives before the verdict and
// calls win at most once. A copy that replies after the verdict, or after
// the policy superseded it, is late: if its IO executed it counts toward
// the strategy's WastedIOs. refs counts the copies still out, armed timers
// and an in-flight sibling-cancel hop, so the op outlives its stragglers.
// Timers are engine-owned recycled events that cannot be cancelled; they
// stay quiet once the get is won. Ops pool on the cluster's shared Pools
// bundle (not the strategy — strategies are per-leg) and rebind their
// owner at acquire.
type getOp struct {
	getReq
	pol       getPolicy
	wasted    *uint64 // the strategy's WastedIOs; nil when no copy can lose
	cancelled *uint64 // TiedStrategy.Cancelled; nil for every other strategy
	won       bool
	res       GetResult
	sent      int // copies sent so far; a copy's seq is its 1-based send order
	pending   int // copies still awaiting a reply (a revocable one from when it lands)
	refs      int
	fired     int // timer firings so far
	floor     int // copies with seq <= floor are superseded (AppTO's revocation)

	// Policy scratch.
	idx        int             // MittOS-consistent: replica index of the copy out
	alt        int             // Tied: the node the delay timer's copy goes to
	winner     int             // Tied: handle slot of the winning copy
	refused    bool            // Tied: one copy was already refused by a crashed node
	minVersion uint64          // MittOS-consistent: the session's version of the key
	err        error           // MittOS: the refusal carried across RetryOverhead
	waits      []time.Duration // MittOS: each replica's predicted wait
	handles    [2]*ServeHandle // revocable copies' handles, by slot

	timerFn  func() // pre-bound op.timerFire
	revokeFn func() // pre-bound op.revokeHop
}

// getCopy is one copy's call chain: request hop, Node.serve, reply hop. A
// plain copy is always served and always replies. A revocable copy (slot
// >= 0) serves through a revocation handle held in the op's slot, is not
// served at all if it was superseded before it landed, and resolves
// silently — no reply hop — if its IO is revoked.
type getCopy struct {
	op       *getOp
	node     int
	deadline time.Duration
	seq      int
	slot     int // handle slot of a revocable copy; -1 for a plain one
	queue    int // the serving node's queue depth, piggybacked on the reply
	err      error

	sendFn  func()      // pre-bound cp.send: request hop
	serveFn func(error) // pre-bound cp.serve: serve completion
	replyFn func()      // pre-bound cp.reply: reply hop
}

func (op *getOp) Bind() {
	op.timerFn = op.timerFire
	op.revokeFn = op.revokeHop
}

func (cp *getCopy) Bind() {
	cp.sendFn = cp.send
	cp.serveFn = cp.serve
	cp.replyFn = cp.reply
}

// newGet starts one get on the kernel; the strategy then sends its first
// copies and arms its timer, if it has one.
func (c *Cluster) newGet(pol getPolicy, key int64, onDone func(GetResult), wasted *uint64) *getOp {
	op := sim.Acquire(&c.pools.getOps)
	op.begin(c, key, onDone)
	op.pol, op.wasted, op.cancelled = pol, wasted, nil
	op.sent, op.pending, op.fired, op.floor, op.refused = 0, 0, 0, 0, false
	return op
}

// send issues a plain copy, pending from the moment it is sent.
func (op *getOp) send(node int, deadline time.Duration) {
	op.pending++
	op.launch(node, deadline, -1)
}

// sendRevocable issues a copy whose handle goes to the given slot; it
// counts as pending only once its request lands.
func (op *getOp) sendRevocable(node, slot int) { op.launch(node, 0, slot) }

func (op *getOp) launch(node int, deadline time.Duration, slot int) {
	op.sent++
	op.refs++
	cp := sim.Acquire(&op.c.pools.getCopies)
	cp.op, cp.node, cp.deadline, cp.seq, cp.slot = op, node, deadline, op.sent, slot
	op.c.Net.Send(cp.sendFn)
}

// arm schedules the policy's timer, which holds a reference until it fires.
func (op *getOp) arm(d time.Duration) {
	op.refs++
	op.c.Eng.After(d, op.timerFn)
}

// stale reports whether a copy's reply can no longer decide the get.
func (op *getOp) stale(cp *getCopy) bool { return op.won || cp.seq <= op.floor }

// win records the verdict; the kernel delivers it once the policy hook
// returns.
func (op *getOp) win(tries int, err error) {
	op.won = true
	op.res = GetResult{Latency: op.c.Eng.Now().Sub(op.start), Tries: tries, Err: err}
}

// release gives back a revocable copy's handle, first revoking its IO if
// cancel is set; an empty slot is a no-op.
func (op *getOp) release(slot int, cancel bool) {
	h := op.handles[slot]
	if h == nil {
		return
	}
	if cancel {
		h.Cancel()
	}
	h.Done()
	op.handles[slot] = nil
}

// settle drops one reference and, if the get was just won, hands the user
// the verdict — after the op may have been recycled, so the callback is
// free to start the next get on it.
func (op *getOp) settle() {
	onDone := op.onDone
	if !op.won || onDone == nil {
		op.deref()
		return
	}
	op.onDone = nil
	res := op.res
	op.deref()
	onDone(res)
}

func (op *getOp) deref() {
	op.refs--
	if op.refs > 0 {
		return
	}
	// A get that never won (every copy refused with nothing left to try)
	// still holds its handles.
	op.release(0, false)
	op.release(1, false)
	op.won, op.onDone, op.err = false, nil, nil
	op.c.pools.getOps.Release(op)
}

func (op *getOp) freeCopy(cp *getCopy) {
	cp.op, cp.err = nil, nil
	op.c.pools.getCopies.Release(cp)
}

// send is the request hop landing at the replica.
func (cp *getCopy) send() {
	op := cp.op
	n := op.c.Nodes[cp.node]
	if cp.slot < 0 {
		n.serve(opGet, op.key, cp.deadline, cp.serveFn, nil)
		return
	}
	if op.stale(cp) {
		// Superseded before the request even landed: nothing is served.
		op.freeCopy(cp)
		op.deref()
		return
	}
	op.pending++
	op.handles[cp.slot] = n.ServeGetCancelable(op.key, 0, cp.serveFn)
}

func (cp *getCopy) serve(err error) {
	op := cp.op
	cp.err = err
	// The response piggybacks the server's queue depth now — by the time
	// the client reads it, it is one hop stale.
	cp.queue = op.c.Nodes[cp.node].OutstandingIOs()
	if !errors.Is(err, ErrRevoked) {
		op.c.Net.Send(cp.replyFn)
		return
	}
	if cp.slot < 0 {
		// Teardown harvest of a stranded serve context: the engine is about
		// to be reset, so a reply hop would never land. Resolve in place.
		cp.reply()
		return
	}
	// The revocation dropped the IO before it ran: the copy resolves
	// silently — no reply hop, no wasted IO. Mid-run only superseded copies
	// are revoked, and their handles are the policy's; a copy still current
	// here is a teardown harvest and gives its handle back.
	if !op.stale(cp) {
		op.release(cp.slot, false)
	}
	op.freeCopy(cp)
	op.deref()
}

// reply is the response hop landing back at the client.
func (cp *getCopy) reply() {
	op, err := cp.op, cp.err
	if op.stale(cp) {
		if op.wasted != nil && wasted(err) {
			*op.wasted++ // the losing copy's IO ran to completion
		}
	} else {
		op.pending--
		op.pol.onReply(op, cp, err)
	}
	op.freeCopy(cp)
	op.settle()
}

func (op *getOp) timerFire() {
	op.fired++
	if !op.won {
		op.pol.onTimer(op)
	}
	op.settle()
}

// race is the verdict rule Base, Clone and Hedged share: the first
// decisive reply wins, and a crashed node's refusal is not decisive while a
// sibling copy is still out. Tries is the number of copies sent, so a
// primary that completes after a hedge went out does not report Tries: 1
// and hide the duplicated IO from the per-try accounting.
func (op *getOp) race(err error) {
	if errors.Is(err, ErrNodeDown) && op.pending > 0 {
		return // that node crashed mid-flight; the sibling decides
	}
	op.win(op.sent, err)
}

// livePair picks the copies Clone and Tied send: two distinct random
// replicas out of the live ones (with every node up the filter is the
// identity and the random draws are unchanged). A pair needs two survivors:
// with one it is returned alone, and with none the primary, whose refusal
// fails the get fast; second is -1 in both cases. live is the caller's
// selection scratch, returned for reuse.
func livePair(c *Cluster, rng *sim.RNG, replicas, live []int) (_ []int, first, second int) {
	live = live[:0]
	for _, r := range replicas {
		if !c.Nodes[r].Down() {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return live, replicas[0], -1
	case 1:
		return live, live[0], -1
	}
	i := rng.Intn(len(live))
	j := rng.Intn(len(live) - 1)
	if j >= i {
		j++
	}
	return live, live[i], live[j]
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
	op := s.C.newGet(s, key, onDone, nil)
	op.send(op.replicas[0], 0)
}

func (s *BaseStrategy) onReply(op *getOp, _ *getCopy, err error) { op.race(err) }
func (s *BaseStrategy) onTimer(*getOp)                           {}

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

// Name implements Strategy.
func (s *TimeoutStrategy) Name() string { return "AppTO" }

// Get implements Strategy.
func (s *TimeoutStrategy) Get(key int64, onDone func(GetResult)) {
	s.attempt(s.C.newGet(s, key, onDone, &s.WastedIOs))
}

// attempt sends the next try, a revocable copy in slot 0, to the next
// replica; every try but the last arms its retry timer first.
func (s *TimeoutStrategy) attempt(op *getOp) {
	if op.sent < len(op.replicas)-1 {
		op.arm(s.TO)
	}
	op.sendRevocable(op.replicas[op.sent], 0)
}

func (s *TimeoutStrategy) onReply(op *getOp, _ *getCopy, err error) {
	op.release(0, false)
	if errors.Is(err, ErrNodeDown) && op.sent < len(op.replicas) {
		// Crashed replica: its refusal came back in one RTT; retry now
		// rather than waiting out TO.
		s.Retries++
		s.attempt(op)
		return
	}
	op.win(op.sent, err)
}

// onTimer abandons the current try AND revokes its IO, so the stale IO does
// not compete with every later try for the device. Every timer is TO long
// and each try arms at most one, in order, so the k-th firing belongs to
// the k-th try; one whose try already failed over on a crash stays quiet.
func (s *TimeoutStrategy) onTimer(op *getOp) {
	if op.fired != op.sent {
		return
	}
	s.Retries++
	op.release(0, true)
	op.floor = op.sent
	s.attempt(op)
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
	op := s.C.newGet(s, key, onDone, &s.WastedIOs)
	// Cloning to a crashed node would just burn an RTT on a refusal.
	var first, second int
	s.live, first, second = livePair(s.C, s.RNG, op.replicas, s.live)
	op.send(first, 0)
	if second >= 0 {
		op.send(second, 0)
	}
}

func (s *CloneStrategy) onReply(op *getOp, _ *getCopy, err error) { op.race(err) }
func (s *CloneStrategy) onTimer(*getOp)                           {}

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
	op := s.C.newGet(s, key, onDone, &s.WastedIOs)
	op.arm(s.HedgeAfter)
	op.send(op.replicas[0], 0)
}

func (s *HedgedStrategy) onReply(op *getOp, _ *getCopy, err error) {
	if errors.Is(err, ErrNodeDown) && op.sent == 1 {
		// Primary crashed: don't wait out HedgeAfter, go to the secondary
		// now. The timer finds sent == 2 and stays quiet, so no third copy
		// ever goes out.
		op.send(op.replicas[1], 0)
		return
	}
	op.race(err)
}

func (s *HedgedStrategy) onTimer(op *getOp) {
	if op.sent == 1 {
		s.Hedges++
		op.send(op.replicas[1], 0)
	}
}

// replicaStat is a client's running view of one replica, kept per node by
// the adaptive-selection strategies.
type replicaStat struct {
	seen bool     // a reply from this replica has been observed
	lat  float64  // EWMA response latency, ns
	qEst float64  // C3: server-reported queue size (stale feedback)
	qAt  sim.Time // C3: when that feedback was received
	out  int      // C3: client-local concurrency compensation
}

// observe folds one response latency into the EWMA; the first sample
// seeds it.
func (st *replicaStat) observe(lat time.Duration, alpha float64) {
	prev := st.lat
	if !st.seen {
		prev, st.seen = float64(lat), true
	}
	st.lat = prev*(1-alpha) + float64(lat)*alpha
}

// replicaStats sizes a per-node stat table on first use.
func replicaStats(stats []replicaStat, c *Cluster) []replicaStat {
	if stats == nil {
		stats = make([]replicaStat, len(c.Nodes))
	}
	return stats
}

// SnitchStrategy keeps an EWMA of each replica's recent latency and always
// asks the currently-fastest one — Cassandra's dynamic snitch (§7.8.3).
type SnitchStrategy struct {
	C *Cluster
	// Alpha is the EWMA weight of new samples.
	Alpha float64

	stats []replicaStat
}

// Name implements Strategy.
func (s *SnitchStrategy) Name() string { return "Snitch" }

// Get implements Strategy.
func (s *SnitchStrategy) Get(key int64, onDone func(GetResult)) {
	s.stats = replicaStats(s.stats, s.C)
	if s.Alpha <= 0 {
		s.Alpha = 0.3
	}
	op := s.C.newGet(s, key, onDone, nil)
	best := op.replicas[0]
	bestScore := math.MaxFloat64
	for _, r := range op.replicas {
		if s.C.Nodes[r].Down() {
			continue // a crashed replica's fast refusals would look "fast"
		}
		// Unknown replicas score 0, so they are explored first.
		if score := s.stats[r].lat; score < bestScore {
			best, bestScore = r, score
		}
	}
	op.send(best, 0)
}

func (s *SnitchStrategy) onReply(op *getOp, cp *getCopy, err error) {
	s.stats[cp.node].observe(s.C.Eng.Now().Sub(op.start), s.Alpha)
	op.win(1, err)
}

func (s *SnitchStrategy) onTimer(*getOp) {}

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

	stats []replicaStat
	decay time.Duration // feedback aging constant (C3's rate control)
}

// Name implements Strategy.
func (s *C3Strategy) Name() string { return "C3" }

// Get implements Strategy.
func (s *C3Strategy) Get(key int64, onDone func(GetResult)) {
	s.stats = replicaStats(s.stats, s.C)
	if s.Alpha <= 0 {
		s.Alpha = 0.3
	}
	if s.decay <= 0 {
		s.decay = 2 * time.Second
	}
	op := s.C.newGet(s, key, onDone, nil)
	best := op.replicas[0]
	bestScore := math.MaxFloat64
	for _, r := range op.replicas {
		if s.C.Nodes[r].Down() {
			continue // crashed replicas drop out of the ranking
		}
		st := &s.stats[r]
		// C3's concurrency-compensated queue estimate: the stale
		// server-reported depth (aged — C3's rate control lets shunned
		// replicas be retried after a while) plus our own outstanding.
		age := float64(op.start.Sub(st.qAt)) / float64(s.decay)
		stale := st.qEst / (1 + age)
		q := stale + float64(st.out) + 1
		score := st.lat * q * q * q // the cubic queue penalty
		if score < bestScore {
			best, bestScore = r, score
		}
	}
	s.stats[best].out++
	op.send(best, 0)
}

// onReply takes the queue depth the reply piggybacks; it only refreshes
// when this replica is asked again.
func (s *C3Strategy) onReply(op *getOp, cp *getCopy, err error) {
	st := &s.stats[cp.node]
	st.out--
	st.qEst = float64(cp.queue)
	st.qAt = s.C.Eng.Now()
	st.observe(st.qAt.Sub(op.start), s.Alpha)
	op.win(1, err)
}

func (s *C3Strategy) onTimer(*getOp) {}

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

// Name implements Strategy.
func (s *MittOSStrategy) Name() string { return "MittOS" }

// Get implements Strategy.
func (s *MittOSStrategy) Get(key int64, onDone func(GetResult)) {
	op := s.C.newGet(s, key, onDone, nil)
	op.waits = op.waits[:0]
	for range op.replicas {
		op.waits = append(op.waits, 0)
	}
	s.attempt(op)
}

// attempt sends the next try; tries are strictly sequential, so the try
// number is the count of copies sent.
func (s *MittOSStrategy) attempt(op *getOp) {
	deadline := s.Deadline
	if op.sent == len(op.replicas)-1 && !s.UseWaitHint {
		deadline = 0 // 3rd try disables the deadline (§5)
	}
	op.send(op.replicas[op.sent], deadline)
}

func (s *MittOSStrategy) onReply(op *getOp, _ *getCopy, err error) {
	down := errors.Is(err, ErrNodeDown)
	if op.sent > len(op.replicas) || !(core.IsBusy(err) || down) {
		op.win(op.sent, err) // served, or the last-ditch try's verdict
		return
	}
	if be, ok := err.(*core.BusyError); ok {
		op.waits[op.sent-1] = be.PredictedWait
	} else if down {
		// A crashed replica is "busy forever": never the least-busy pick.
		op.waits[op.sent-1] = time.Duration(math.MaxInt64)
	}
	s.Failovers++
	op.err = err
	if s.RetryOverhead > 0 {
		op.arm(s.RetryOverhead)
		return
	}
	s.next(op)
}

// onTimer is the failover step delayed by RetryOverhead.
func (s *MittOSStrategy) onTimer(op *getOp) { s.next(op) }

// next is the failover step after a refusal (EBUSY or node-down).
func (s *MittOSStrategy) next(op *getOp) {
	if op.sent < len(op.replicas) {
		s.attempt(op)
		return
	}
	err := op.err
	if errors.Is(err, ErrNodeDown) && !s.UseWaitHint {
		// The deadline was already disabled on this final try; a crash
		// leaves nothing to fail over to.
		op.win(op.sent, err)
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
		op.win(op.sent, err) // the whole replica set is down
		return
	}
	op.send(op.replicas[best], 0)
}
