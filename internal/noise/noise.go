// Package noise implements the noisy neighbors of the paper's evaluation:
//
//   - Bursty — the EC2 multi-tenant contention process of §6: noise
//     episodes with Poisson arrivals, heavy-tailed (Pareto) durations and
//     variable intensity, calibrated so that across a 20-node fleet mostly
//     only 1–2 nodes are busy at the same time (Figure 3g: ~25% one busy,
//     ~5% two busy).
//   - Steady — the microbenchmark injector of §7.1: a fixed number of
//     closed-loop contender streams (e.g. "4 threads of 4KB random reads",
//     "a thread of 64KB writes").
//   - Rotating — the severe 1-busy/2-free rotating contention used by the
//     Table 1 NoSQL survey and the §7.8.3 snitching/C3 experiment.
//   - CacheEvictor — the memory-space contention for MittCache runs:
//     periodic eviction of a fraction of the cached working set (§7.4).
package noise

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/oscache"
	"mittos/internal/sim"
)

// BurstyConfig shapes one node's EC2-like contention process.
type BurstyConfig struct {
	// MeanInterarrival is the mean gap between episode starts (Poisson).
	MeanInterarrival time.Duration
	// EpisodeMin/EpisodeAlpha/EpisodeCap parameterize the bounded-Pareto
	// episode duration: most bursts are sub-second, a few run long —
	// §6's "noises come and go at various intervals".
	EpisodeMin   time.Duration
	EpisodeAlpha float64
	EpisodeCap   time.Duration
	// MaxStreams is the contention intensity ceiling: each episode runs
	// 1..MaxStreams closed-loop contender streams.
	MaxStreams int
	// IODepth is the queue depth each stream keeps outstanding (fio-style
	// neighbors submit batches, not one IO at a time).
	IODepth int
	// IOSize and Op describe the contender IOs.
	IOSize int
	Op     blockio.Op
	// Class/Priority are the contenders' ionice identity.
	Class    blockio.Class
	Priority int
	// Proc is the tenant id the contender IOs carry.
	Proc int
	// AddrSpace is the device range contenders touch.
	AddrSpace int64
}

// DefaultDiskBursty calibrates the disk contention process so a single node
// is busy ≈2% of the time; across 20 nodes this yields Figure 3g's
// P(1 busy)≈25%, P(2 busy)≈5%.
func DefaultDiskBursty(addrSpace int64, proc int) BurstyConfig {
	return BurstyConfig{
		MeanInterarrival: 12 * time.Second,
		EpisodeMin:       100 * time.Millisecond,
		EpisodeAlpha:     1.3,
		EpisodeCap:       1500 * time.Millisecond,
		MaxStreams:       3, // concurrent 1MB reads, "each will add 12ms delay" (§7.2)
		IODepth:          3,
		IOSize:           1 << 20,
		Op:               blockio.Read,
		Class:            blockio.ClassBestEffort,
		Priority:         4,
		Proc:             proc,
		AddrSpace:        addrSpace,
	}
}

// DefaultSSDBursty calibrates SSD contention: bursts of writes.
func DefaultSSDBursty(addrSpace int64, proc int) BurstyConfig {
	return BurstyConfig{
		MeanInterarrival: 7 * time.Second,
		EpisodeMin:       50 * time.Millisecond,
		EpisodeAlpha:     1.3,
		EpisodeCap:       2500 * time.Millisecond,
		MaxStreams:       6,
		IODepth:          2,
		IOSize:           256 << 10, // bursts of large writes spanning many chips
		Op:               blockio.Write,
		Class:            blockio.ClassBestEffort,
		Priority:         4,
		Proc:             proc,
		AddrSpace:        addrSpace,
	}
}

// Bursty runs the episode process against a device.
type Bursty struct {
	eng *sim.Engine
	cfg BurstyConfig
	dev blockio.Device
	rng *sim.RNG
	ids blockio.IDGen

	active   bool
	stop     bool
	episodes []Episode
	inFlight int

	reqs       blockio.Pool
	streamPool sim.Freelist[bStream]
}

// bStream is one pooled closed-loop contender stream; its completion
// callback is bound once so per-IO reissue allocates nothing.
type bStream struct {
	b     *Bursty
	until sim.Time
	fn    func(*blockio.Request) // pre-bound (*bStream).complete
}

func (st *bStream) Bind() { st.fn = st.complete }

func (st *bStream) complete(*blockio.Request) {
	st.b.inFlight--
	st.b.stream(st)
}

// Episode records one contention burst (for inter-arrival analysis, Fig 3d-f).
type Episode struct {
	Start    sim.Time
	Duration time.Duration
	Streams  int
}

// NewBursty builds (but does not start) the process.
func NewBursty(eng *sim.Engine, cfg BurstyConfig, dev blockio.Device, rng *sim.RNG) *Bursty {
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 1
	}
	if cfg.IODepth <= 0 {
		cfg.IODepth = 1
	}
	if cfg.IOSize <= 0 {
		cfg.IOSize = 4096
	}
	return &Bursty{eng: eng, cfg: cfg, dev: dev, rng: rng}
}

// Start schedules the first episode.
func (b *Bursty) Start() { b.scheduleNext() }

// Stop halts the process after the current episode drains.
func (b *Bursty) Stop() { b.stop = true }

// Busy reports whether an episode is in progress.
func (b *Bursty) Busy() bool { return b.active }

// Episodes returns the recorded bursts.
func (b *Bursty) Episodes() []Episode { return b.episodes }

func (b *Bursty) scheduleNext() {
	if b.stop {
		return
	}
	gap := b.rng.Exp(b.cfg.MeanInterarrival)
	b.eng.After(gap, b.beginEpisode)
}

func (b *Bursty) beginEpisode() {
	if b.stop {
		return
	}
	dur := b.rng.ParetoDuration(b.cfg.EpisodeMin, b.cfg.EpisodeAlpha, b.cfg.EpisodeCap)
	streams := 1 + b.rng.Intn(b.cfg.MaxStreams)
	b.active = true
	b.episodes = append(b.episodes, Episode{Start: b.eng.Now(), Duration: dur, Streams: streams})
	end := b.eng.Now().Add(dur)
	for i := 0; i < streams*b.cfg.IODepth; i++ {
		st := sim.Acquire(&b.streamPool)
		st.b, st.until = b, end
		b.stream(st)
	}
	b.eng.FireAt(end, func() {
		b.active = false
		b.scheduleNext()
	})
}

// stream is one closed-loop contender: issue, wait, repeat until the
// episode ends. Requests come from the pool and are boundary-owned
// (AutoFree): the block layer recycles each one after its completion has
// been observed.
func (b *Bursty) stream(st *bStream) {
	if b.eng.Now() >= st.until || b.stop {
		b.streamPool.Release(st)
		return
	}
	req := b.reqs.Get()
	req.ID, req.Op = b.ids.Next(), b.cfg.Op
	req.Offset, req.Size = b.randomOffset(), b.cfg.IOSize
	req.Proc, req.Class, req.Priority = b.cfg.Proc, b.cfg.Class, b.cfg.Priority
	req.SubmitTime = b.eng.Now()
	req.AutoFree = true
	req.OnComplete = st.fn
	b.inFlight++
	b.dev.Submit(req)
}

func (b *Bursty) randomOffset() int64 {
	span := b.cfg.AddrSpace - int64(b.cfg.IOSize)
	if span <= 0 {
		return 0
	}
	off := b.rng.Int63n(span)
	// Align to 4KB so page-granular devices behave.
	return off &^ 4095
}

// Steady is the §7.1 microbenchmark injector: N contender streams running
// continuously from start to stop.
type Steady struct {
	eng *sim.Engine
	dev blockio.Device
	rng *sim.RNG
	ids blockio.IDGen

	op       blockio.Op
	size     int
	streamsN int
	class    blockio.Class
	priority int
	proc     int
	space    int64

	running bool

	reqs   blockio.Pool
	doneFn func(*blockio.Request) // bound once: re-loop on completion
}

// NewSteady builds a steady injector of `streams` closed-loop contenders.
func NewSteady(eng *sim.Engine, dev blockio.Device, rng *sim.RNG,
	op blockio.Op, size, streams int, class blockio.Class, priority, proc int,
	space int64) *Steady {
	s := &Steady{eng: eng, dev: dev, rng: rng, op: op, size: size,
		streamsN: streams, class: class, priority: priority, proc: proc,
		space: space}
	s.doneFn = func(*blockio.Request) { s.loop() }
	return s
}

// Start launches the contender streams.
func (s *Steady) Start() {
	if s.running {
		return
	}
	s.running = true
	for i := 0; i < s.streamsN; i++ {
		s.loop()
	}
}

// Stop ends the streams after their current IOs complete.
func (s *Steady) Stop() { s.running = false }

func (s *Steady) loop() {
	if !s.running {
		return
	}
	span := s.space - int64(s.size)
	if span <= 0 {
		span = 1
	}
	req := s.reqs.Get()
	req.ID, req.Op, req.Offset = s.ids.Next(), s.op, s.rng.Int63n(span)&^4095
	req.Size, req.Proc, req.Class, req.Priority = s.size, s.proc, s.class, s.priority
	req.SubmitTime = s.eng.Now()
	req.AutoFree = true
	req.OnComplete = s.doneFn
	s.dev.Submit(req)
}

// Rotating moves severe contention across a set of devices: one busy,
// the rest free, advancing every period (Table 1's "severe IO contention
// for one second in a rotating manner"; §7.8.3's 1B2F patterns).
type Rotating struct {
	eng     *sim.Engine
	devs    []blockio.Device
	period  time.Duration
	streams int
	size    int
	space   int64
	rng     *sim.RNG
	ids     blockio.IDGen

	current int
	epoch   uint64
	running bool

	reqs       blockio.Pool
	streamPool sim.Freelist[rStream]
}

// rStream is one pooled rotating-contender stream, pinned to a node and
// epoch; stale streams retire at their next completion.
type rStream struct {
	r     *Rotating
	node  int
	epoch uint64
	fn    func(*blockio.Request) // pre-bound (*rStream).complete
}

func (st *rStream) Bind() { st.fn = st.complete }

func (st *rStream) complete(*blockio.Request) { st.r.loop(st) }

// NewRotating builds the rotating injector.
func NewRotating(eng *sim.Engine, devs []blockio.Device, period time.Duration,
	streams, size int, space int64, rng *sim.RNG) *Rotating {
	if len(devs) == 0 {
		panic("noise: Rotating needs at least one device")
	}
	return &Rotating{eng: eng, devs: devs, period: period, streams: streams,
		size: size, space: space, rng: rng}
}

// Start begins rotating from device 0.
func (r *Rotating) Start() {
	r.running = true
	r.beginEpoch()
}

// Stop halts after in-flight IOs drain.
func (r *Rotating) Stop() { r.running = false; r.epoch++ }

// BusyNode returns the currently contended device index.
func (r *Rotating) BusyNode() int { return r.current }

func (r *Rotating) beginEpoch() {
	if !r.running {
		return
	}
	r.epoch++
	for i := 0; i < r.streams; i++ {
		st := sim.Acquire(&r.streamPool)
		st.r, st.node, st.epoch = r, r.current, r.epoch
		r.loop(st)
	}
	r.eng.After(r.period, func() {
		if !r.running {
			return
		}
		r.current = (r.current + 1) % len(r.devs)
		r.beginEpoch()
	})
}

func (r *Rotating) loop(st *rStream) {
	if !r.running || st.epoch != r.epoch {
		r.streamPool.Release(st)
		return
	}
	span := r.space - int64(r.size)
	if span <= 0 {
		span = 1
	}
	req := r.reqs.Get()
	req.ID, req.Op, req.Offset = r.ids.Next(), blockio.Read, r.rng.Int63n(span)&^4095
	req.Size, req.Proc = r.size, 1000+st.node
	req.Class, req.Priority = blockio.ClassBestEffort, 4
	req.SubmitTime = r.eng.Now()
	req.AutoFree = true
	req.OnComplete = st.fn
	r.devs[st.node].Submit(req)
}

// CacheEvictor models memory-space contention for MittCache runs: every
// period it evicts a fraction of the cache (a neighbor VM ballooning), the
// §7.4 "manual swapping" methodology.
type CacheEvictor struct {
	eng    *sim.Engine
	cache  *oscache.Cache
	frac   float64
	period time.Duration
	rng    *sim.RNG
	ticker *sim.Ticker
}

// NewCacheEvictor builds the evictor.
func NewCacheEvictor(eng *sim.Engine, cache *oscache.Cache, frac float64,
	period time.Duration, rng *sim.RNG) *CacheEvictor {
	return &CacheEvictor{eng: eng, cache: cache, frac: frac, period: period, rng: rng}
}

// Start begins periodic eviction.
func (c *CacheEvictor) Start() {
	c.ticker = c.eng.NewTicker(c.period, func() {
		c.cache.EvictFraction(c.frac, c.rng)
	})
}

// Stop halts eviction.
func (c *CacheEvictor) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}
