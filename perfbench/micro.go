package main

import (
	"fmt"
	"math"
	"time"

	"mittos"
	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/experiments"
	"mittos/internal/kv"
	"mittos/internal/netsim"
	"mittos/internal/oscache"
	"mittos/internal/sim"
	"mittos/internal/ssd"
)

// Layer microbenchmarks: the ns per call of each layer's public entry
// points, shaped by what the traced run saw (queue depths, engine
// occupancy) and by the quick-scale cache size. Bodies that the repository's
// own benchmarks already time (EngineThroughput, EngineCancelHeavy,
// CFQSubmitDispatch, PredictWaitCFQ, PutAdmission) are repeated here rather
// than shared, so the benchmark changes no program file.

// shape sizes the microbenchmarks like the workload.
type shape struct {
	diskQueue  int // deepest disk queue in the traced run
	cfqProcs   int // CFQ process queues, from the deepest CFQ queue
	pending    int // engine high-water of live events
	cachePages int // page-cache capacity of a quick-scale cache node
}

// shapeFrom derives the shape from the traced counts; workloads that attach
// no snapshots (fig3) get the device defaults.
func shapeFrom(c map[string]float64) shape {
	q := experiments.QuickOptions()
	s := shape{
		diskQueue:  int(c["disk.max_queue"]),
		cfqProcs:   int(math.Ceil(c[cfqMaxQueue] / 2)),
		pending:    int(c["sim.max_pending"]),
		cachePages: int(q.Keys + q.Keys/4),
	}
	if s.diskQueue < 1 {
		s.diskQueue = disk.DefaultConfig().QueueDepth
	}
	if s.cfqProcs < 1 {
		s.cfqProcs = 4
	}
	if s.pending < 16 {
		s.pending = 4096
	}
	return s
}

// micro is one microbenchmark: run performs n calls on fresh state and
// returns the time spent in the measured part.
type micro struct {
	name string
	run  func(sh shape, n int) time.Duration
}

var micros = []micro{
	{"ns.sim.after_fire", afterFire},
	{"ns.sim.schedule_cancel", scheduleCancel},
	{"ns.disk.submit_sstf", submitSSTF},
	{"ns.disk.destage_pop", destagePop},
	{"ns.iosched.cfq_submit_dispatch", cfqSubmitDispatch},
	{"ns.core.predict_wait_cfq", predictWaitCFQ},
	{"ns.kv.get", kvGet},
	{"ns.kv.put_durable", kvPutDurable},
	{"ns.oscache.submit_hit", cacheSubmit(false)},
	{"ns.oscache.submit_miss", cacheSubmit(true)},
	{"ns.oscache.evict_fraction", cacheEvictFraction},
	{"ns.oscache.evict_rewarm", cacheEvictRewarm},
	{"ns.ssd.pool_get", ssdPoolGet},
	{"ns.ssd.submit_read", ssdSubmitRead},
	{"ns.netsim.send", netsimSend},
	{"ns.cluster.get.Base", clusterGet("Base")},
	{"ns.cluster.get.Hedged", clusterGet("Hedged")},
	{"ns.cluster.get.MittOS", clusterGet("MittOS")},
}

// Timing: grow n until one run takes calibrateFor, then report the median
// ns per call of microReps runs sized to about repFor each.
const (
	calibrateFor = 5 * time.Millisecond
	repFor       = 20 * time.Millisecond
	microReps    = 5
)

// runMicros times every microbenchmark and returns ns per call by name.
func runMicros(sh shape) map[string]float64 {
	fmt.Printf("# microbenchmarks shaped: disk queue %d, CFQ procs %d, engine pending %d, cache pages %d\n",
		sh.diskQueue, sh.cfqProcs, sh.pending, sh.cachePages)
	out := make(map[string]float64, len(micros))
	for _, m := range micros {
		out[m.name] = timeMicro(func(n int) time.Duration { return m.run(sh, n) })
		fmt.Printf("#   %-32s %12.1f ns\n", m.name, out[m.name])
	}
	return out
}

func timeMicro(run func(n int) time.Duration) float64 {
	n := 1
	d := run(n)
	for d < calibrateFor && n < 1<<24 {
		n *= 4
		d = run(n)
	}
	if d > 0 {
		n = int(math.Max(1, float64(n)*float64(repFor)/float64(d)))
	}
	ns := make([]float64, microReps)
	for i := range ns {
		ns[i] = float64(run(n).Nanoseconds()) / float64(n)
	}
	return median(ns)
}

// afterFire is one fire-and-forget After plus its firing: the engine's
// per-event floor (the EngineThroughput body).
func afterFire(_ shape, n int) time.Duration {
	eng := sim.NewEngine()
	k := 0
	var tick func()
	tick = func() {
		k++
		if k < n {
			eng.After(time.Microsecond, tick)
		}
	}
	eng.After(time.Microsecond, tick)
	start := time.Now()
	eng.Run()
	return time.Since(start)
}

// scheduleCancel re-arms one of sh.pending cancellable timeouts per tick,
// the hedged-timeout churn (the EngineCancelHeavy body).
func scheduleCancel(sh shape, n int) time.Duration {
	eng := sim.NewEngine()
	nop := func() {}
	timeouts := make([]*sim.Event, sh.pending)
	k, cur := 0, 0
	var tick func()
	tick = func() {
		s := cur
		cur = (cur + 1) % len(timeouts)
		if timeouts[s] != nil {
			timeouts[s].Cancel()
		}
		timeouts[s] = eng.Schedule(30*time.Millisecond, nop)
		k++
		if k < n {
			eng.After(3*time.Microsecond, tick)
		}
	}
	eng.After(3*time.Microsecond, tick)
	start := time.Now()
	eng.Run()
	return time.Since(start)
}

// diskRig drives a bare disk with pooled 4 KiB requests at random offsets.
type diskRig struct {
	eng  *sim.Engine
	d    *disk.Disk
	rng  *sim.RNG
	pool blockio.Pool
	done func(*blockio.Request)
}

func newDiskRig() *diskRig {
	eng := sim.NewEngine()
	return &diskRig{
		eng:  eng,
		d:    disk.New(eng, disk.DefaultConfig(), sim.NewRNG(1, "perfbench-disk")),
		rng:  sim.NewRNG(1, "perfbench-offsets"),
		done: func(req *blockio.Request) { req.Release() },
	}
}

func (r *diskRig) submit(op blockio.Op) {
	req := r.pool.Get()
	req.Op = op
	req.Offset = r.rng.Int63n(disk.DefaultConfig().CapacityBytes>>12-1) << 12
	req.Size = 4096
	req.OnComplete = r.done
	r.d.Submit(req)
}

// serveOne fires events until the spindle finishes one operation.
func (r *diskRig) serveOne() {
	served := r.d.Served()
	for r.d.Served() == served && r.eng.Step() {
	}
}

// submitSSTF keeps sh.diskQueue reads queued: each call completes one and
// submits one, so the SSTF and aging scans walk a queue of that depth.
func submitSSTF(sh shape, n int) time.Duration {
	r := newDiskRig()
	for i := 0; i <= sh.diskQueue; i++ {
		r.submit(blockio.Read)
	}
	for i := 0; i < 64; i++ {
		r.serveOne()
		r.submit(blockio.Read)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		r.serveOne()
		r.submit(blockio.Read)
	}
	return time.Since(start)
}

// destagePop keeps the NVRAM write buffer full (WriteBufferSlots entries):
// each call acks one write and destages one, popping the buffer's head.
func destagePop(_ shape, n int) time.Duration {
	r := newDiskRig()
	for i := 0; i < disk.DefaultConfig().WriteBufferSlots; i++ {
		r.submit(blockio.Write)
	}
	for i := 0; i < 64; i++ {
		r.serveOne()
		r.submit(blockio.Write)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		r.serveOne()
		r.submit(blockio.Write)
	}
	return time.Since(start)
}

func cfqStack() (*mittos.Engine, *mittos.Stack) {
	eng := mittos.NewEngine()
	return eng, mittos.NewStack(eng, mittos.StackConfig{
		Device: mittos.DeviceDisk, Scheduler: mittos.SchedulerCFQ, Mitt: true, Seed: 1})
}

// cfqSubmitDispatch is one accepted MittCFQ read round trip: admission,
// CFQ dispatch, disk service, completion (the CFQSubmitDispatch body).
func cfqSubmitDispatch(_ shape, n int) time.Duration {
	eng, s := cfqStack()
	var pool blockio.Pool
	var ids blockio.IDGen
	var cur *blockio.Request
	done := func(error) { cur.Release() }
	submit := func(off int64) {
		cur = pool.Get()
		cur.ID = ids.Next()
		cur.Op = blockio.Read
		cur.Offset, cur.Size = off, 4096
		cur.Proc = 1
		cur.Deadline = time.Second
		s.Target().SubmitSLO(cur, done)
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		submit(int64(i+1) * (10 << 30))
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		submit(int64(i%900) << 30)
	}
	return time.Since(start)
}

// predictWaitCFQ is one MittCFQ admission prediction with sh.cfqProcs
// process queues of two large reads each (the PredictWaitCFQ body).
func predictWaitCFQ(sh shape, n int) time.Duration {
	_, s := cfqStack()
	var ids blockio.IDGen
	for p := 0; p < sh.cfqProcs; p++ {
		for k := 0; k < 2; k++ {
			req := &mittos.Request{ID: ids.Next(), Op: mittos.OpRead,
				Offset: int64(p*7+k+1) * (1 << 30), Size: 1 << 20, Proc: p + 2}
			s.Target().SubmitSLO(req, func(error) {})
		}
	}
	_ = s.PredictWait(100<<30, 4096)
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = s.PredictWait(int64(i%900)<<30, 4096)
	}
	return time.Since(start)
}

// kvGet is one kv read of a cache-resident key through MittCache, the
// fig7 read path.
func kvGet(sh shape, n int) time.Duration {
	eng := mittos.NewEngine()
	s := mittos.NewStack(eng, mittos.StackConfig{Device: mittos.DeviceDisk,
		Scheduler: mittos.SchedulerCFQ, Mitt: true, CachePages: sh.cachePages, Seed: 1})
	var ids blockio.IDGen
	st := kv.New(eng, kv.DefaultConfig(0, 100<<30), s.Target(), &ids)
	keys := int64(sh.cachePages) * 4 / 5
	st.Preload(keys)
	for k := int64(0); k < keys; k++ {
		if off, ok := st.KeyOffset(k); ok {
			s.Cache.Warm(off, 4096)
		}
	}
	k := 0
	var get func(error)
	get = func(error) {
		k++
		if k > n {
			eng.Halt()
			return
		}
		st.Get(int64(k*7919)%keys, 0, get)
	}
	start := time.Now()
	get(nil)
	eng.Run()
	return time.Since(start)
}

// kvPutDurable is one accepted durable put: WAL group commit through
// MittCFQ and the memtable apply (the PutAdmission body).
func kvPutDurable(_ shape, n int) time.Duration {
	eng, s := cfqStack()
	cfg := kv.DefaultConfig(0, 100<<30)
	cfg.MemtableCap = 1 << 30 // isolate the WAL path: never flush
	var ids blockio.IDGen
	st := kv.New(eng, cfg, s.Target(), &ids)
	done := func(error) {}
	put := func() {
		st.PutDurable(7, time.Second, done)
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		put()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		put()
	}
	return time.Since(start)
}

// nullDevice completes every IO after a fixed latency: a backing store that
// keeps the page-cache microbenchmarks inside the cache layer.
type nullDevice struct {
	eng      *sim.Engine
	inflight int
}

func (d *nullDevice) Submit(req *blockio.Request) {
	d.inflight++
	req.DispatchTime = d.eng.Now()
	d.eng.After(100*time.Microsecond, func() {
		d.inflight--
		req.CompleteTime = d.eng.Now()
		if req.OnComplete != nil {
			req.OnComplete(req)
		}
		if req.AutoFree {
			req.Release()
		}
	})
}

func (d *nullDevice) InFlight() int { return d.inflight }

func warmCache(sh shape) (*sim.Engine, *oscache.Cache) {
	eng := sim.NewEngine()
	cfg := oscache.DefaultConfig()
	cfg.CapacityPages = sh.cachePages
	c := oscache.New(eng, cfg, &nullDevice{eng: eng})
	c.Warm(0, sh.cachePages*4096)
	return eng, c
}

// cacheSubmit is one 4 KiB page-cache read: a hit on a full cache, or a
// miss that reads through, inserts, and evicts the LRU page.
func cacheSubmit(miss bool) func(shape, int) time.Duration {
	return func(sh shape, n int) time.Duration {
		eng, c := warmCache(sh)
		pages := int64(sh.cachePages)
		var pool blockio.Pool
		done := func(r *blockio.Request) { r.Release() }
		read := func(i int) {
			page := int64(i) * 7919 % pages
			if miss {
				// Stride through a range four times the capacity past
				// the warmed pages, so LRU never holds the next page.
				page = pages + int64(i)*7919%(4*pages)
			}
			r := pool.Get()
			r.Op, r.Offset, r.Size, r.OnComplete = blockio.Read, page*4096, 4096, done
			c.Submit(r)
			eng.Run()
		}
		for i := 0; i < 64; i++ {
			read(i)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			read(64 + i)
		}
		return time.Since(start)
	}
}

// cacheEvictFraction is one EvictFraction(2%) call on a cache kept 85–100%
// resident (the refill is not timed).
func cacheEvictFraction(sh shape, n int) time.Duration {
	_, c := warmCache(sh)
	rng := sim.NewRNG(1, "perfbench-evict")
	var el time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		c.EvictFraction(0.02, rng)
		el += time.Since(start)
		if i%8 == 7 {
			c.Warm(0, sh.cachePages*4096)
		}
	}
	return el
}

// cacheEvictRewarm swaps one resident 4 KiB page out (EvictRange) and back
// in (Warm) on a full cache: fig7's memory-contention noise, per page.
func cacheEvictRewarm(sh shape, n int) time.Duration {
	_, c := warmCache(sh)
	pages := int64(sh.cachePages)
	start := time.Now()
	for i := 0; i < n; i++ {
		off := int64(i) * 7919 % pages * 4096
		c.EvictRange(off, 4096)
		c.Warm(off, 4096)
	}
	return time.Since(start)
}

// ssdPoolGet is one recycle of a default-geometry SSD through ssd.Pool:
// the reset a leg arena pays instead of ssd.New.
func ssdPoolGet(_ shape, n int) time.Duration {
	eng := sim.NewEngine()
	var p ssd.Pool
	cfg := ssd.DefaultConfig()
	p.Put(p.Get(eng, cfg))
	start := time.Now()
	for i := 0; i < n; i++ {
		p.Put(p.Get(eng, cfg))
	}
	return time.Since(start)
}

// ssdSubmitRead is one 4 KiB SSD read and its completion.
func ssdSubmitRead(_ shape, n int) time.Duration {
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	s := ssd.New(eng, cfg)
	pages := cfg.LogicalBytes() / 4096
	var pool blockio.Pool
	done := func(r *blockio.Request) { r.Release() }
	read := func(i int) {
		r := pool.Get()
		r.Op, r.Offset, r.Size, r.OnComplete = blockio.Read, int64(i)*7919%pages*4096, 4096, done
		s.Submit(r)
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		read(i)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		read(64 + i)
	}
	return time.Since(start)
}

// netsimSend is one network hop and its delivery.
func netsimSend(_ shape, n int) time.Duration {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(1, "perfbench-net"))
	k := 0
	var hop func()
	hop = func() {
		k++
		if k < n {
			net.Send(hop)
		}
	}
	net.Send(hop)
	start := time.Now()
	eng.Run()
	return time.Since(start)
}

// clusterGet is one user get through a strategy on an idle quick-scale
// disk cluster (CFQ, 3-way replication), issued back to back.
func clusterGet(strategy string) func(shape, int) time.Duration {
	return func(_ shape, n int) time.Duration {
		q := experiments.QuickOptions()
		eng := sim.NewEngine()
		net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(1, "perfbench-net"))
		tmpl := cluster.NodeConfig{
			Device:      cluster.DeviceDisk,
			DiskConfig:  disk.DefaultConfig(),
			UseCFQ:      true,
			Mitt:        strategy == "MittOS",
			MittOptions: core.DefaultOptions(),
			Keys:        q.Keys,
			DiskProfile: experiments.DiskProfile(),
		}
		c := cluster.NewCluster(eng, net, q.Nodes, 3, tmpl, sim.NewRNG(1, "perfbench-nodes"))
		var strat cluster.Strategy
		switch strategy {
		case "Hedged":
			strat = &cluster.HedgedStrategy{C: c, HedgeAfter: 8 * time.Millisecond}
		case "MittOS":
			strat = &cluster.MittOSStrategy{C: c, Deadline: 20 * time.Millisecond, UseWaitHint: true}
		default:
			strat = &cluster.BaseStrategy{C: c}
		}
		issue := func(total int) {
			k := 0
			var get func(cluster.GetResult)
			get = func(cluster.GetResult) {
				k++
				if k > total {
					eng.Halt()
					return
				}
				strat.Get(int64(k)*7919%q.Keys, get)
			}
			get(cluster.GetResult{})
			eng.Run()
		}
		issue(64)
		start := time.Now()
		issue(n)
		return time.Since(start)
	}
}
