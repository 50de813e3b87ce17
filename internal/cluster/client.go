package cluster

import (
	"time"

	"mittos/internal/metrics"
	"mittos/internal/sim"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// ArrivalProcess selects how a client spaces its request arrivals (open
// loop) or think times (closed loop).
type ArrivalProcess int

// Arrival processes.
const (
	// ArrivalFixed issues one request per Interval with optional ±JitterFrac
	// uniform jitter — the original §7.2 client.
	ArrivalFixed ArrivalProcess = iota
	// ArrivalPoisson draws exponentially distributed gaps with mean Interval
	// (a Poisson arrival process): the memoryless open-loop model the
	// loadsweep experiment offers load with, where burstiness is unbounded
	// rather than capped by the jitter window.
	ArrivalPoisson
)

// InflightGauge counts user requests currently outstanding across the
// clients sharing it, with a high-water mark. It is the load sweep's
// overload diagnostic: an open-loop fleet pushed past saturation grows the
// mark without bound, while a fast-rejecting strategy keeps it flat.
type InflightGauge struct {
	Cur int
	Max int
}

func (g *InflightGauge) inc() {
	if g == nil {
		return
	}
	g.Cur++
	if g.Cur > g.Max {
		g.Max = g.Cur
	}
}

func (g *InflightGauge) dec() {
	if g == nil {
		return
	}
	g.Cur--
}

// ClientConfig shapes one YCSB client.
type ClientConfig struct {
	// Interval is the open-loop period between user requests.
	Interval time.Duration
	// JitterFrac randomizes each ArrivalFixed gap by ±frac to avoid
	// phase-locking a fleet of clients. Must be in [0, 1].
	JitterFrac float64
	// Arrival selects the inter-arrival process: ArrivalFixed (default)
	// keeps the jittered fixed interval, ArrivalPoisson draws exponential
	// gaps with mean Interval.
	Arrival ArrivalProcess
	// ScaleFactor is the number of parallel get() sub-requests per user
	// request; the user waits for all of them (§7.3).
	ScaleFactor int
	// Requests caps how many user requests this client issues (0 = until
	// the engine stops scheduling it).
	Requests int
	// Closed switches to closed-loop issuing: the next request goes out
	// Interval after the previous one COMPLETES (the §7.5 client model,
	// where "only 6 threads are busy all the time").
	Closed bool
	// CORecord makes a closed-loop client also record every latency into
	// UserLatenciesCO with HdrHistogram-style coordinated-omission
	// correction: synthetic samples stand in for the requests the stalled
	// loop never issued. Open-loop clients are CO-free by construction
	// (latency runs from the intended arrival tick) and ignore this.
	CORecord bool
	// SLO, when positive, classifies every finished user request as meeting
	// or missing the deadline (SLOMet/SLOMissed, mirrored into the metrics
	// registry when Rec is set) — the load sweep's attainment metric.
	SLO time.Duration
	// Rec, when non-nil, mirrors the SLO verdicts into the metrics registry
	// (RNode slo-met / slo-missed). The nil default records nothing.
	Rec *metrics.Recorder
	// Inflight, when non-nil, is a gauge shared across a fleet of clients
	// tracking concurrently outstanding user requests.
	Inflight *InflightGauge
	// ExpectedOps pre-sizes the latency samples to the leg's expected user
	// request count so steady-state recording never reallocates (0 keeps a
	// small default).
	ExpectedOps int
	// Bufs, when non-nil, is a shared sample-buffer pool the latency
	// samples draw their backing arrays from. An experiment arena passes
	// one pool across legs and steals the buffers back (ReclaimBufs) at
	// teardown, so per-client latency recording stops costing a fresh
	// ExpectedOps-sized array every leg. Nil allocates normally.
	Bufs *stats.BufPool
}

// DefaultClientConfig matches the §7.2 runs: one get per user request.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{Interval: 20 * time.Millisecond, JitterFrac: 0.2, ScaleFactor: 1}
}

// Client drives a strategy with a YCSB workload and records latencies.
type Client struct {
	eng   *sim.Engine
	cfg   ClientConfig
	strat Strategy
	wl    *ycsb.Workload
	rng   *sim.RNG

	// putStrat, when set via SetPutStrategy, switches the client to mixed
	// read/write issuing: each tick draws an op from the workload mix and
	// writes go through the put strategy.
	putStrat PutStrategy
	// rmw makes every write a read-modify-write (YCSB workload F): the get
	// completes first, then the put is issued, and the user latency covers
	// both legs.
	rmw bool

	// UserLatencies holds per-user-request completion times (max over the
	// scale-factor fan-out) — the Figure 6 metric.
	UserLatencies *stats.Sample
	// IOLatencies holds per-get completion times — the Figure 5 metric.
	IOLatencies *stats.Sample
	// PutLatencies holds per-put quorum-ack times (empty for read-only
	// clients).
	PutLatencies *stats.Sample
	// UserLatenciesCO is the coordinated-omission-corrected twin of
	// UserLatencies (nil unless Closed && CORecord).
	UserLatenciesCO *stats.Sample

	issued    int
	finished  int
	errors    int
	sloMet    int
	sloMissed int
	stopped   bool
	// nextAt is the intended arrival instant of the scheduled tick: the
	// CO-free start time every request's latency is measured from.
	nextAt sim.Time

	tickFn func()                // pre-bound issue timer
	users  sim.Freelist[userReq] // pooled per-user-request contexts
}

// userReq is one in-flight user request: the scale-factor fan-out shares a
// single pooled context (all sub-gets are issued at the same virtual
// instant, so one start time covers both metrics).
type userReq struct {
	cl        *Client
	start     sim.Time
	remaining int
	failed    bool
	key       int64           // RMW carry: the key the follow-up put writes
	fn        func(GetResult) // pre-bound u.done
	putFn     func(PutResult) // pre-bound u.putDone
	rmwFn     func(GetResult) // pre-bound u.rmwGet: get leg of a workload-F op
}

func (u *userReq) Bind() {
	u.fn = u.done
	u.putFn = u.putDone
	u.rmwFn = u.rmwGet
}

func (u *userReq) done(res GetResult) {
	cl := u.cl
	cl.IOLatencies.Add(cl.eng.Now().Sub(u.start))
	if res.Err != nil {
		u.failed = true
	}
	u.remaining--
	if u.remaining > 0 {
		return
	}
	u.finish()
}

func (u *userReq) putDone(res PutResult) {
	cl := u.cl
	cl.PutLatencies.Add(cl.eng.Now().Sub(u.start))
	if res.Err != nil {
		u.failed = true
	}
	u.remaining--
	if u.remaining > 0 {
		return
	}
	u.finish()
}

// rmwGet is the read leg of a read-modify-write: record the get like any
// sub-get, then chain the put on the same key without releasing the context.
// A failed read short-circuits the chain — there is nothing to modify, so
// issuing the put anyway would burn a quorum write and record a bogus put
// latency for a user op that already failed.
func (u *userReq) rmwGet(res GetResult) {
	cl := u.cl
	cl.IOLatencies.Add(cl.eng.Now().Sub(u.start))
	if res.Err != nil {
		u.failed = true
		u.remaining--
		if u.remaining == 0 {
			u.finish()
		}
		return
	}
	cl.putStrat.Put(u.key, u.putFn)
}

func (u *userReq) finish() {
	cl := u.cl
	cl.finished++
	if u.failed {
		cl.errors++
	}
	lat := cl.eng.Now().Sub(u.start)
	cl.UserLatencies.Add(lat)
	if cl.UserLatenciesCO != nil {
		cl.UserLatenciesCO.AddCO(lat, cl.cfg.Interval)
	}
	if cl.cfg.SLO > 0 {
		if lat <= cl.cfg.SLO {
			cl.sloMet++
			cl.cfg.Rec.Incr(metrics.RNode, metrics.CSLOMet)
		} else {
			cl.sloMissed++
			cl.cfg.Rec.Incr(metrics.RNode, metrics.CSLOMissed)
		}
	}
	cl.cfg.Inflight.dec()
	cl.users.Release(u)
	if cl.cfg.Closed {
		cl.scheduleNext()
	}
}

// NewClient builds a client.
func NewClient(eng *sim.Engine, cfg ClientConfig, strat Strategy,
	wl *ycsb.Workload, rng *sim.RNG) *Client {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = 1
	}
	if cfg.Interval <= 0 {
		panic("cluster: client Interval must be positive")
	}
	if cfg.JitterFrac < 0 || cfg.JitterFrac > 1 {
		panic("cluster: client JitterFrac must be in [0, 1]")
	}
	ops := cfg.ExpectedOps
	if ops <= 0 {
		ops = 4096
	}
	cl := &Client{
		eng: eng, cfg: cfg, strat: strat, wl: wl, rng: rng,
		UserLatencies: newSample(cfg.Bufs, ops),
		IOLatencies:   newSample(cfg.Bufs, ops*cfg.ScaleFactor),
		// Read-only clients never record a put; SetPutStrategy sizes this
		// for real when the client actually issues writes.
		PutLatencies: stats.NewSample(0),
	}
	if cfg.Closed && cfg.CORecord {
		// Sized for the raw count; the synthetic fills a rare stall adds
		// grow the buffer, which is off the steady-state path.
		cl.UserLatenciesCO = newSample(cfg.Bufs, ops)
	}
	cl.tickFn = cl.tick
	return cl
}

// newSample draws a sample's backing buffer from the shared pool when one is
// configured, else allocates it.
func newSample(bufs *stats.BufPool, capacity int) *stats.Sample {
	if bufs != nil {
		return stats.NewSampleBuf(bufs.Get(capacity))
	}
	return stats.NewSample(capacity)
}

// SetPutStrategy switches the client to mixed issuing: each tick draws
// Workload.Next and routes writes through ps. rmw turns writes into
// read-modify-writes (YCSB F); the per-request context carries one RMW key,
// so rmw requires ScaleFactor 1. Must be called before Start.
func (cl *Client) SetPutStrategy(ps PutStrategy, rmw bool) {
	if rmw && cl.cfg.ScaleFactor != 1 {
		panic("cluster: RMW clients require ScaleFactor 1")
	}
	cl.putStrat = ps
	cl.rmw = rmw
	// Now that the client is known to write, give PutLatencies its real
	// pre-sizing from the expected op count (the put share is bounded by the
	// total user ops), pooled like the other two samples.
	ops := cl.cfg.ExpectedOps
	if ops <= 0 {
		ops = 4096
	}
	cl.PutLatencies = newSample(cl.cfg.Bufs, ops)
}

// ReclaimBufs hands the samples' backing buffers back to the shared pool.
// Call only at leg teardown, after every consumer has merged or copied the
// latencies it needs: the samples are empty afterwards. No-op without a
// configured pool.
func (cl *Client) ReclaimBufs() {
	if cl.cfg.Bufs == nil {
		return
	}
	cl.cfg.Bufs.Put(cl.UserLatencies.TakeBuf())
	cl.cfg.Bufs.Put(cl.IOLatencies.TakeBuf())
	cl.cfg.Bufs.Put(cl.PutLatencies.TakeBuf())
	if cl.UserLatenciesCO != nil {
		cl.cfg.Bufs.Put(cl.UserLatenciesCO.TakeBuf())
	}
}

// Start begins issuing requests.
func (cl *Client) Start() { cl.scheduleNext() }

// Stop ceases new requests (in-flight ones still complete).
func (cl *Client) Stop() { cl.stopped = true }

// Issued and Finished report progress; Errors counts failed user requests.
func (cl *Client) Issued() int { return cl.issued }

// Finished reports completed user requests.
func (cl *Client) Finished() int { return cl.finished }

// Errors counts user requests that ended in an error.
func (cl *Client) Errors() int { return cl.errors }

// SLOMet counts finished user requests at or under cfg.SLO (zero when no
// SLO is configured).
func (cl *Client) SLOMet() int { return cl.sloMet }

// SLOMissed counts finished user requests over cfg.SLO.
func (cl *Client) SLOMissed() int { return cl.sloMissed }

func (cl *Client) scheduleNext() {
	if cl.stopped || (cl.cfg.Requests > 0 && cl.issued >= cl.cfg.Requests) {
		return
	}
	var gap time.Duration
	switch cl.cfg.Arrival {
	case ArrivalPoisson:
		gap = cl.rng.Exp(cl.cfg.Interval)
	default:
		gap = cl.cfg.Interval
		if cl.cfg.JitterFrac > 0 {
			span := time.Duration(float64(gap) * cl.cfg.JitterFrac)
			gap = gap - span + cl.rng.Duration(2*span)
		}
	}
	// JitterFrac = 1 can draw a zero gap and Exp can round to one: floor at
	// a tick so the client never re-fires at the same instant.
	if gap <= 0 {
		gap = time.Nanosecond
	}
	cl.nextAt = cl.eng.Now().Add(gap)
	cl.eng.After(gap, cl.tickFn)
}

func (cl *Client) tick() {
	cl.issueOne()
	if !cl.cfg.Closed {
		cl.scheduleNext()
	}
}

func (cl *Client) issueOne() {
	cl.issued++
	u := sim.Acquire(&cl.users)
	u.cl = cl
	// The latency clock starts at the *intended* arrival tick, not the
	// moment the loop got around to issuing — the coordinated-omission-free
	// convention. The engine fires ticks exactly when scheduled, so the two
	// coincide in virtual time; the contract is what matters.
	u.start = cl.nextAt
	u.remaining = cl.cfg.ScaleFactor
	u.failed = false
	cl.cfg.Inflight.inc()
	if cl.putStrat == nil {
		// Read-only clients draw keys exactly as before the mixed path
		// existed, keeping their RNG streams golden-stable.
		for i := 0; i < cl.cfg.ScaleFactor; i++ {
			cl.strat.Get(cl.wl.NextKey(), u.fn)
		}
		return
	}
	for i := 0; i < cl.cfg.ScaleFactor; i++ {
		op := cl.wl.Next()
		switch {
		case op.Kind == ycsb.OpRead:
			cl.strat.Get(op.Key, u.fn)
		case cl.rmw:
			// Workload F: the write is a get→put chain on one key; the
			// user leg stays outstanding until the put's quorum ack.
			u.key = op.Key
			cl.strat.Get(op.Key, u.rmwFn)
		default:
			cl.putStrat.Put(op.Key, u.putFn)
		}
	}
}
