package mittos_test

import (
	"testing"
	"time"

	"mittos"
	"mittos/internal/benchkit"
	"mittos/internal/blockio"
	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/kv"
	"mittos/internal/netsim"
	"mittos/internal/oscache"
	"mittos/internal/sim"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// allocDiskProfile is computed once; profiling is deterministic and only
// the Mitt put pin needs it.
var allocDiskProfile = disk.ProfileTwin(disk.DefaultConfig(),
	42, disk.ProfilerOptions{Buckets: 32, Tries: 6, ProbeSize: 4096})

// syncStrategy completes every get synchronously — the cheapest possible
// strategy, isolating the client loop itself for the tick pins.
type syncStrategy struct{}

func (syncStrategy) Name() string { return "sync" }

func (syncStrategy) Get(key int64, onDone func(cluster.GetResult)) {
	onDone(cluster.GetResult{Latency: time.Microsecond, Tries: 1})
}

// newAllocCluster builds a minimal 3-node replicated cluster for the put
// issue-path pins, mirroring the experiment fleet shape.
func newAllocCluster(name string, mitt bool) (*sim.Engine, *cluster.Cluster) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(61, name+"-net"))
	tmpl := cluster.NodeConfig{
		Device:      cluster.DeviceDisk,
		DiskConfig:  disk.DefaultConfig(),
		UseCFQ:      true,
		Mitt:        mitt,
		MittOptions: core.DefaultOptions(),
		Keys:        10000,
		DiskProfile: allocDiskProfile,
	}
	return eng, cluster.NewCluster(eng, net, 3, 3, tmpl, sim.NewRNG(62, name))
}

// TestAllocBudgets pins the steady-state allocation budgets of the two
// hottest paths. These are hard budgets, not aspirations: a regression
// here silently multiplies across every experiment's millions of IOs.
func TestAllocBudgets(t *testing.T) {
	t.Run("AdmissionDecision", func(t *testing.T) {
		s := benchkit.AdmissionStack()
		_ = s.PredictWait(100<<30, 4096) // warm the SSTF-replay scratch
		avg := testing.AllocsPerRun(200, func() {
			_ = s.PredictWait(450<<30, 4096)
		})
		if avg != 0 {
			t.Fatalf("PredictWait allocates %.1f objects per call; budget is 0", avg)
		}
	})
	t.Run("CFQPredictWait", func(t *testing.T) {
		eng := mittos.NewEngine()
		s := mittos.NewStack(eng, mittos.StackConfig{Device: mittos.DeviceDisk, Scheduler: mittos.SchedulerCFQ, Mitt: true, Seed: 1})
		// Populate several process nodes so the prefix queries walk real
		// trees, plus a device-resident quantum for the mirror replay.
		for i := 0; i < 16; i++ {
			req := &blockio.Request{ID: uint64(i + 1), Op: blockio.Read,
				Offset: int64(i+1) * (40 << 30), Size: 1 << 20, Proc: i % 5}
			s.Target().SubmitSLO(req, func(error) {})
		}
		_ = s.PredictWait(100<<30, 4096) // warm the replay scratch
		avg := testing.AllocsPerRun(200, func() {
			_ = s.PredictWait(450<<30, 4096)
		})
		if avg != 0 {
			t.Fatalf("CFQ PredictWait allocates %.1f objects per call; budget is 0", avg)
		}
	})
	t.Run("CFQSubmitAccept", func(t *testing.T) {
		// Full accept round trip through MittCFQ with an SLO: admission,
		// tolerable-table entry, dispatch, completion, recycling. Requests
		// come from a pool so the path itself is what's measured.
		submit := benchkit.CFQSubmit()
		avg := testing.AllocsPerRun(200, func() {
			submit(300 << 30)
		})
		if avg != 0 {
			t.Fatalf("MittCFQ accept path allocates %.1f objects per IO; budget is 0", avg)
		}
	})
	t.Run("DeadlineSubmitAccept", func(t *testing.T) {
		// The same accept round trip through MittDeadline: admission,
		// deadline-scheduler dispatch into the device mirror, completion,
		// recycling.
		submit := pooledStackSubmit(mittos.StackConfig{Device: mittos.DeviceDisk,
			Scheduler: mittos.SchedulerDeadline, Mitt: true, Seed: 1})
		for i := 0; i < 64; i++ { // warm every pool on the path
			submit(blockio.Read, int64(i+1)*(10<<30), time.Second)
		}
		avg := testing.AllocsPerRun(200, func() {
			submit(blockio.Read, 300<<30, time.Second)
		})
		if avg != 0 {
			t.Fatalf("MittDeadline accept path allocates %.1f objects per IO; budget is 0", avg)
		}
	})
	t.Run("VanillaCachedMiss", func(t *testing.T) {
		// A page cache over the vanilla CFQ stack, cycling 512 pages
		// through 64: every read misses and reads through, every write
		// dirties a page whose write-back reaches the disk. The cache's
		// sub-IOs enter the block layer through cluster.TargetDevice,
		// which recycles them.
		submit := pooledStackSubmit(mittos.StackConfig{Device: mittos.DeviceDisk,
			Scheduler: mittos.SchedulerCFQ, CachePages: 64, Seed: 1})
		page := int64(0)
		next := func() int64 { page = (page + 1) % 512; return page << 30 }
		for i := 0; i < 1024; i++ { // warm every pool on the path
			submit(blockio.Read, next(), 0)
			submit(blockio.Write, next(), 0)
		}
		if avg := testing.AllocsPerRun(200, func() { submit(blockio.Read, next(), 0) }); avg != 0 {
			t.Fatalf("cached miss read allocates %.1f objects per IO; budget is 0", avg)
		}
		if avg := testing.AllocsPerRun(200, func() { submit(blockio.Write, next(), 0) }); avg != 0 {
			t.Fatalf("cached write allocates %.1f objects per IO; budget is 0", avg)
		}
	})
	t.Run("NoopCachedMiss", func(t *testing.T) {
		// The same miss read-through over the vanilla noop stack: the noop
		// queue drains after every IO, so its next append must reuse the
		// backing array.
		submit := pooledStackSubmit(mittos.StackConfig{Device: mittos.DeviceDisk,
			Scheduler: mittos.SchedulerNoop, CachePages: 64, Seed: 1})
		page := int64(0)
		next := func() int64 { page = (page + 1) % 512; return page << 30 }
		for i := 0; i < 1024; i++ { // warm every pool on the path
			submit(blockio.Read, next(), 0)
		}
		if avg := testing.AllocsPerRun(200, func() { submit(blockio.Read, next(), 0) }); avg != 0 {
			t.Fatalf("noop cached miss read allocates %.1f objects per IO; budget is 0", avg)
		}
	})
	t.Run("EngineSchedule", func(t *testing.T) {
		eng := mittos.NewEngine()
		// Warm the event freelist.
		for i := 0; i < 64; i++ {
			eng.After(time.Duration(i+1)*time.Microsecond, func() {})
		}
		eng.Run()
		avg := testing.AllocsPerRun(200, func() {
			eng.After(time.Microsecond, func() {})
			eng.Run()
		})
		if avg != 0 {
			t.Fatalf("After+Run allocates %.1f objects per event; budget is 0", avg)
		}
	})
	t.Run("EngineResetReuse", func(t *testing.T) {
		// Leg arenas recycle engines across experiment legs; a warmed
		// engine running a multi-level event mix then Reset must not
		// allocate — the timing wheel's slot arrays are fixed engine
		// fields and dropped events return to the freelist.
		eng := mittos.NewEngine()
		leg := func() {
			for i := 0; i < 64; i++ {
				eng.After(time.Duration(i+1)*100*time.Microsecond, func() {})
			}
			eng.RunFor(3 * time.Millisecond)
			eng.Reset()
		}
		leg() // warm the freelist
		avg := testing.AllocsPerRun(100, leg)
		if avg != 0 {
			t.Fatalf("Reset-then-reuse allocates %.1f objects per leg; budget is 0", avg)
		}
	})
	t.Run("PutAccepted", func(t *testing.T) {
		// The accepted durable-put round trip: WAL group assembly, SLO
		// admission through MittCFQ, dispatch, completion, memtable apply,
		// and memory-latency ack — every context on the path is pooled.
		put := benchkit.DurablePut()
		avg := testing.AllocsPerRun(200, func() {
			put()
		})
		if avg != 0 {
			t.Fatalf("accepted durable put allocates %.1f objects per op; budget is 0", avg)
		}
	})
	t.Run("PoissonTick", func(t *testing.T) {
		// The open-loop Poisson issue path: exponential gap draw, tick,
		// pooled user-request context, synchronous completion, recycling.
		// The loadsweep experiment takes this path millions of times per
		// leg, so it carries the same zero budget as the fixed-interval
		// loop.
		eng := mittos.NewEngine()
		strat := &syncStrategy{}
		wl := ycsb.New(ycsb.DefaultConfig(10000), sim.NewRNG(9, "alloc-poisson-wl"))
		cfg := cluster.ClientConfig{
			Interval: 100 * time.Microsecond, Arrival: cluster.ArrivalPoisson,
			ScaleFactor: 1, ExpectedOps: 1 << 16,
			Inflight: &cluster.InflightGauge{}, SLO: time.Millisecond,
		}
		cl := cluster.NewClient(eng, cfg, strat, wl, sim.NewRNG(9, "alloc-poisson-cl"))
		cl.Start()
		eng.RunFor(10 * time.Millisecond) // warm the context pool
		avg := testing.AllocsPerRun(200, func() {
			eng.RunFor(time.Millisecond)
		})
		if avg != 0 {
			t.Fatalf("Poisson tick allocates %.1f objects per millisecond of ticks; budget is 0", avg)
		}
	})
	t.Run("CORecording", func(t *testing.T) {
		// Coordinated-omission-corrected recording on a pre-sized sample:
		// the raw observation plus the synthetic back-fill loop.
		s := stats.NewSample(1 << 14)
		for i := 0; i < 64; i++ {
			s.AddCO(55*time.Millisecond, 10*time.Millisecond)
		}
		avg := testing.AllocsPerRun(200, func() {
			s.AddCO(55*time.Millisecond, 10*time.Millisecond)
		})
		if avg != 0 {
			t.Fatalf("AddCO allocates %.1f objects per record; budget is 0", avg)
		}
	})
	t.Run("YCSBNext", func(t *testing.T) {
		// Op generation is pure RNG arithmetic over a value-typed Op; the
		// mixed zipfian config exercises the read, insert, and update
		// branches plus the skewed key draw.
		cfg := ycsb.DefaultConfig(100000)
		cfg.ReadFraction = 0.5
		cfg.InsertFraction = 0.5
		cfg.Dist = ycsb.Zipfian
		w := ycsb.New(cfg, sim.NewRNG(9, "alloc-ycsb"))
		for i := 0; i < 64; i++ {
			_ = w.Next()
			_ = w.NextKey()
		}
		avg := testing.AllocsPerRun(200, func() {
			_ = w.Next()
			_ = w.NextKey()
		})
		if avg != 0 {
			t.Fatalf("YCSB op generation allocates %.1f objects per op; budget is 0", avg)
		}
	})
	t.Run("BasePutIssue", func(t *testing.T) {
		// The full replicated-put round trip on the vanilla stack: op and
		// quorum scratch from the cluster pools, three serve contexts, WAL
		// commit, acks, and recycling — the steady-state write driver.
		eng, c := newAllocCluster("alloc-baseput", false)
		ps := &cluster.BasePut{C: c}
		done := func(cluster.PutResult) {}
		put := func() {
			ps.Put(7, done)
			eng.Run()
		}
		for i := 0; i < 64; i++ { // warm every pool on the path
			put()
		}
		avg := testing.AllocsPerRun(200, put)
		if avg != 0 {
			t.Fatalf("BasePut issue path allocates %.1f objects per op; budget is 0", avg)
		}
	})
	t.Run("MittOSPutIssue", func(t *testing.T) {
		// Same round trip through the SLO-aware strategy: wait-hint probe,
		// admission on each replica, quorum bookkeeping, and the accepted
		// completion. On an idle fleet every copy is admitted, so this pins
		// the common no-rejection case.
		eng, c := newAllocCluster("alloc-mittput", true)
		ps := &cluster.MittOSPut{C: c, Deadline: time.Second, UseWaitHint: true}
		done := func(cluster.PutResult) {}
		put := func() {
			ps.Put(7, done)
			eng.Run()
		}
		for i := 0; i < 64; i++ { // warm every pool on the path
			put()
		}
		avg := testing.AllocsPerRun(200, put)
		if avg != 0 {
			t.Fatalf("MittOSPut issue path allocates %.1f objects per op; budget is 0", avg)
		}
	})
	// The remaining client-strategy pins share the BasePutIssue shape: one
	// op round trip on an idle fleet, pools warmed first, then drained.
	putPin := func(t *testing.T, name string, mitt bool, mk func(*cluster.Cluster) cluster.PutStrategy) {
		eng, c := newAllocCluster("alloc-"+name, mitt)
		ps := mk(c)
		done := func(cluster.PutResult) {}
		put := func() {
			ps.Put(7, done)
			eng.Run()
		}
		for i := 0; i < 64; i++ { // warm every pool on the path
			put()
		}
		if avg := testing.AllocsPerRun(200, put); avg != 0 {
			t.Fatalf("%s issue path allocates %.1f objects per op; budget is 0", name, avg)
		}
	}
	getPin := func(t *testing.T, name string, mitt bool, mk func(*cluster.Cluster) cluster.Strategy) {
		eng, c := newAllocCluster("alloc-"+name, mitt)
		s := mk(c)
		done := func(cluster.GetResult) {}
		get := func() {
			s.Get(7, done)
			eng.Run()
		}
		for i := 0; i < 64; i++ { // warm every pool on the path
			get()
		}
		if avg := testing.AllocsPerRun(200, get); avg != 0 {
			t.Fatalf("%s get allocates %.1f objects per op; budget is 0", name, avg)
		}
	}
	t.Run("TimeoutPutIssue", func(t *testing.T) {
		// The handoff timer is armed on every put and fires after the
		// quorum, so this pins the timer's recycled event as well.
		putPin(t, "TimeoutPut", false, func(c *cluster.Cluster) cluster.PutStrategy {
			return &cluster.TimeoutPut{C: c, TO: 50 * time.Millisecond}
		})
	})
	t.Run("HedgedPutIssue", func(t *testing.T) {
		putPin(t, "HedgedPut", false, func(c *cluster.Cluster) cluster.PutStrategy {
			return &cluster.HedgedPut{C: c, HedgeAfter: 50 * time.Millisecond}
		})
	})
	t.Run("BaseGet", func(t *testing.T) {
		getPin(t, "Base", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.BaseStrategy{C: c}
		})
	})
	t.Run("AppTOGet", func(t *testing.T) {
		// A timeout shorter than a served read, so every get revokes two
		// tries and retries: some revoked IOs are dropped from the queue,
		// the rest run and their late replies are tallied as waste.
		getPin(t, "AppTO", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.TimeoutStrategy{C: c, TO: 300 * time.Microsecond}
		})
	})
	t.Run("CloneGet", func(t *testing.T) {
		getPin(t, "Clone", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.CloneStrategy{C: c, RNG: sim.NewRNG(9, "alloc-clone")}
		})
	})
	t.Run("TiedGet", func(t *testing.T) {
		// Both copies of the tie go out, and the winner's cancel hop
		// revokes the loser.
		getPin(t, "Tied", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.TiedStrategy{C: c, RNG: sim.NewRNG(9, "alloc-tied"), Delay: time.Microsecond}
		})
	})
	t.Run("SnitchGet", func(t *testing.T) {
		getPin(t, "Snitch", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.SnitchStrategy{C: c}
		})
	})
	t.Run("C3Get", func(t *testing.T) {
		getPin(t, "C3", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.C3Strategy{C: c}
		})
	})
	t.Run("ConsistentGet", func(t *testing.T) {
		getPin(t, "MittOS-consistent", true, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.ConsistentMittOSStrategy{C: c, Deadline: 20 * time.Millisecond}
		})
	})
	t.Run("HedgedGet", func(t *testing.T) {
		// A short hedge delay so some gets send the second copy and the
		// loser's late reply is tallied too.
		getPin(t, "Hedged", false, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.HedgedStrategy{C: c, HedgeAfter: 2 * time.Millisecond}
		})
	})
	t.Run("MittOSGet", func(t *testing.T) {
		getPin(t, "MittOS", true, func(c *cluster.Cluster) cluster.Strategy {
			return &cluster.MittOSStrategy{C: c, Deadline: 20 * time.Millisecond, UseWaitHint: true}
		})
	})
	t.Run("DiskDestageCycle", func(t *testing.T) {
		// The NVRAM write path with the buffer full: each cycle destages
		// the oldest record, buffers one new write, and fires its ack.
		eng := sim.NewEngine()
		cfg := disk.DefaultConfig()
		d := disk.New(eng, cfg, sim.NewRNG(1, "alloc-destage"))
		offs := sim.NewRNG(1, "alloc-destage-offsets")
		var pool blockio.Pool
		done := func(req *blockio.Request) { req.Release() }
		submit := func() {
			req := pool.Get()
			req.Op = blockio.Write
			req.Offset = offs.Int63n(cfg.CapacityBytes>>12-1) << 12
			req.Size = 4096
			req.OnComplete = done
			d.Submit(req)
		}
		cycle := func() {
			for served := d.Served(); d.Served() == served && eng.Step(); {
			}
			submit()
		}
		for i := 0; i <= cfg.WriteBufferSlots; i++ { // one on the spindle, the rest buffered
			submit()
		}
		for i := 0; i < 64; i++ { // warm the pools
			cycle()
		}
		if d.QueueLen() != 0 {
			t.Fatalf("%d writes overflowed the NVRAM buffer", d.QueueLen())
		}
		avg := testing.AllocsPerRun(200, cycle)
		if avg != 0 {
			t.Fatalf("buffered write + ack + destage allocates %.1f objects per cycle; budget is 0", avg)
		}
	})
	t.Run("CacheEvictRewarm", func(t *testing.T) {
		// fig7's memory-contention noise, per page: swap a resident page
		// out (its page-table entry turns shadow) and back in.
		cfg := oscache.DefaultConfig()
		cfg.CapacityPages = 4096
		c := oscache.New(sim.NewEngine(), cfg, discardDevice{})
		c.Warm(0, cfg.CapacityPages*cfg.PageSize)
		i := 0
		avg := testing.AllocsPerRun(200, func() {
			off := int64(i*7919%cfg.CapacityPages) * int64(cfg.PageSize)
			c.EvictRange(off, cfg.PageSize)
			c.Warm(off, cfg.PageSize)
			i++
		})
		if avg != 0 {
			t.Fatalf("EvictRange + Warm allocates %.1f objects per page; budget is 0", avg)
		}
	})
	t.Run("KVKeyOffset", func(t *testing.T) {
		// The key → block lookup warmFleet and fig7's cache noise run per
		// key, over a dense preloaded run and a sparse flushed one.
		eng := sim.NewEngine()
		var ids blockio.IDGen
		cfg := kv.DefaultConfig(0, 100<<30)
		cfg.MemtableCap = 64
		st := kv.New(eng, cfg, &core.Vanilla{Dev: discardDevice{}}, &ids)
		st.Preload(100000)
		for k := int64(0); k < 64; k++ {
			st.Put(200000+3*k, func(error) {})
		}
		if st.Runs() != 2 {
			t.Fatalf("runs = %d, want the preloaded run and one flushed run", st.Runs())
		}
		k := int64(0)
		avg := testing.AllocsPerRun(200, func() {
			_, _ = st.KeyOffset(k * 7919 % 100000)
			_, _ = st.KeyOffset(200000 + 3*(k%64))
			k++
		})
		if avg != 0 {
			t.Fatalf("KeyOffset allocates %.1f objects per lookup; budget is 0", avg)
		}
	})
}

// pooledStackSubmit builds a Stack and returns a func that runs one 4KB IO
// through its Target to completion, drawing requests from a pool so the
// measured path is the stack's alone.
func pooledStackSubmit(cfg mittos.StackConfig) func(op blockio.Op, off int64, deadline time.Duration) {
	eng := mittos.NewEngine()
	s := mittos.NewStack(eng, cfg)
	var pool blockio.Pool
	var ids blockio.IDGen
	var cur *blockio.Request
	done := func(error) { cur.Release() }
	return func(op blockio.Op, off int64, deadline time.Duration) {
		cur = pool.Get()
		cur.ID, cur.Op, cur.Offset, cur.Size = ids.Next(), op, off, 4096
		cur.Proc, cur.Deadline = 1, deadline
		s.Target().SubmitSLO(cur, done)
		eng.Run()
	}
}

// discardDevice accepts IOs and never completes them: a backing device for
// pins whose measured path submits nothing, or whose completions are not
// part of what is measured.
type discardDevice struct{}

func (discardDevice) Submit(*blockio.Request) {}
func (discardDevice) InFlight() int           { return 0 }
