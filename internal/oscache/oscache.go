// Package oscache models the OS buffer/page cache that sits between
// applications and block devices: page-granular residency, LRU eviction,
// write-back dirty pages, mmap-style address checks, and the memory-space
// contention (ballooning, fadvise eviction) that MittCache detects (§4.4).
package oscache

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// Config holds cache parameters.
type Config struct {
	// PageSize is the cache page granularity (4KB, like the kernel).
	PageSize int
	// CapacityPages is the resident-set limit.
	CapacityPages int
	// HitLatency is the cost of serving a fully-resident read (page-table
	// walk + copy) — §6 measures ~0.02ms for cached 4KB reads.
	HitLatency time.Duration
	// AddrCheckLatency is the cost of the addrcheck() system call: "only
	// adds a negligible overhead (82ns per call)" (§4.4).
	AddrCheckLatency time.Duration
	// Slab, when non-nil, is a shared page freelist: an experiment arena
	// passes one slab across legs (reclaiming each finished cache's pages
	// with Reclaim) so the next leg's resident set reuses the same page
	// structs. Nil gets a private slab.
	Slab *PageSlab
	// Reqs, when non-nil, is the request pool background sub-IOs draw from,
	// shared for the same reason. Nil gets a private pool.
	Reqs *blockio.Pool
}

// DefaultConfig returns a cache shaped like the paper's: 4KB pages and a
// ~20µs hit path.
func DefaultConfig() Config {
	return Config{
		PageSize:         4096,
		CapacityPages:    1 << 20, // 4GB, fits the paper's 3.5GB dataset
		HitLatency:       20 * time.Microsecond,
		AddrCheckLatency: 82 * time.Nanosecond,
	}
}

// page is one resident cache page, doubly linked into the LRU list
// directly (no container/list element allocation) and recycled through the
// cache's freelist on eviction.
type page struct {
	id         int64
	dirty      bool
	prev, next *page
}

// Cache is the page cache. Reads that miss go to the backing device; writes
// are absorbed (write-back) and flushed on eviction.
type Cache struct {
	eng     *sim.Engine
	cfg     Config
	backing blockio.Device

	// table maps page ids to resident pages. An evicted page keeps a
	// shadow entry, which distinguishes first-time accesses (cold misses)
	// from re-evicted pages: MittCache only signals EBUSY for the latter
	// ("should return EBUSY to signal memory space contention ... but not
	// for first-time accesses", §4.4).
	table pageTable
	// Intrusive LRU: head = most recently used, tail = eviction victim.
	lruHead, lruTail *page
	resident         int
	slab             *PageSlab // page and page-table freelist, possibly shared across legs

	ids      blockio.IDGen
	inflight int

	// Per-IO freelists: background sub-requests and the hit/miss
	// completion contexts that replace per-IO closures.
	reqs    *blockio.Pool
	ops     sim.Freelist[cacheOp]
	victims []*page // EvictFraction scratch

	hits, misses, evictions uint64

	// degrade scales the hit path (memory-bus contention from a noisy
	// co-tenant); 1.0 = healthy.
	degrade float64

	rec *metrics.Recorder
}

// SetRecorder attaches a metrics recorder (nil disables, the default).
func (c *Cache) SetRecorder(rec *metrics.Recorder) { c.rec = rec }

// New builds a cache over the backing device.
func New(eng *sim.Engine, cfg Config, backing blockio.Device) *Cache {
	if cfg.PageSize <= 0 || cfg.CapacityPages <= 0 {
		panic("oscache: invalid config")
	}
	slab := cfg.Slab
	if slab == nil {
		slab = &PageSlab{}
	}
	reqs := cfg.Reqs
	if reqs == nil {
		reqs = &blockio.Pool{}
	}
	c := &Cache{
		eng:     eng,
		cfg:     cfg,
		backing: backing,
		slab:    slab,
		reqs:    reqs,
		degrade: 1.0,
	}
	c.table.reset(slab.table(tableSlots(cfg.CapacityPages)))
	return c
}

// Reclaim hands every resident page and the cleared page table back to the
// (shared) slab and empties the LRU. Call only at experiment-leg teardown:
// the cache is unusable afterwards, it exists so an arena can recycle the
// page structs and page table of a finished leg into the next leg's cache.
func (c *Cache) Reclaim() {
	for pg := c.lruHead; pg != nil; {
		next := pg.next
		c.slab.put(pg)
		pg = next
	}
	c.lruHead, c.lruTail, c.resident = nil, nil, 0
	c.slab.parkTable(c.table.slots)
	c.table = pageTable{}
}

// SetDegradation scales the hit-serving latency by factor (>1 slower);
// 1 restores. Misses are priced by the backing device, which has its own
// degradation hook.
func (c *Cache) SetDegradation(factor float64) {
	if factor <= 0 {
		panic("oscache: degradation factor must be positive")
	}
	c.degrade = factor
}

// Degradation returns the current factor.
func (c *Cache) Degradation() float64 { return c.degrade }

// hitLatency is the possibly-degraded cost of serving from memory.
func (c *Cache) hitLatency() time.Duration {
	if c.degrade != 1.0 {
		return time.Duration(float64(c.cfg.HitLatency) * c.degrade)
	}
	return c.cfg.HitLatency
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns hit/miss/eviction counters.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// ResidentPages returns the current resident-set size in pages.
func (c *Cache) ResidentPages() int { return c.resident }

// InFlight implements blockio.Device.
func (c *Cache) InFlight() int { return c.inflight }

func (c *Cache) span(off int64, size int) (first, last int64) {
	ps := int64(c.cfg.PageSize)
	return off / ps, (off + int64(size) - 1) / ps
}

// Resident reports whether every page of [off, off+size) is resident. This
// is the page-table walk behind both the read() fast path and addrcheck().
func (c *Cache) Resident(off int64, size int) bool {
	first, last := c.span(off, size)
	for p := first; p <= last; p++ {
		if e := c.table.find(p); e == nil || e.pg == nil {
			return false
		}
	}
	return true
}

// WasEverResident reports whether every page of the range has been resident
// at some point — i.e. a miss now means memory-space contention, not a cold
// first access.
func (c *Cache) WasEverResident(off int64, size int) bool {
	first, last := c.span(off, size)
	for p := first; p <= last; p++ {
		if c.table.find(p) == nil {
			return false
		}
	}
	return true
}

// AddrCheckCost returns the modeled cost of one addrcheck() call.
func (c *Cache) AddrCheckCost() time.Duration { return c.cfg.AddrCheckLatency }

// cacheOp is the pooled per-IO context for the cache's deferred work: the
// hit-latency completion timer and the insert-then-complete callback of a
// read-through or prefetch sub-IO. Callback fields are bound once at
// allocation and reused across recycles.
type cacheOp struct {
	c           *Cache
	req         *blockio.Request         // the client request to complete (nil for prefetch)
	first, last int64                    // pages to insert on sub-IO completion
	fireFn      func()                   // pre-bound op.fire (hit/write timer)
	fillFn      func(r *blockio.Request) // pre-bound op.fill (sub-IO completion)
}

func (c *Cache) getOp(req *blockio.Request) *cacheOp {
	op := sim.Acquire(&c.ops)
	op.c, op.req = c, req
	return op
}

func (c *Cache) freeOp(op *cacheOp) {
	op.req = nil
	c.ops.Release(op)
}

func (op *cacheOp) Bind() {
	op.fireFn = op.fire
	op.fillFn = op.fill
}

// fire completes a hit/write after the hit latency elapsed.
func (op *cacheOp) fire() {
	c, req := op.c, op.req
	c.freeOp(op)
	c.complete(req)
}

// fill runs when a read-through or prefetch sub-IO finishes: populate the
// fetched pages and, for a read-through, complete the waiting client.
func (op *cacheOp) fill(*blockio.Request) {
	c, req := op.c, op.req
	first, last := op.first, op.last
	c.freeOp(op)
	for p := first; p <= last; p++ {
		c.insert(p, false)
	}
	if req != nil {
		c.complete(req)
	}
}

// Submit implements blockio.Device: reads serve from the cache when fully
// resident, otherwise read through to the backing device and populate.
// Writes are absorbed write-back.
func (c *Cache) Submit(req *blockio.Request) {
	if req.Size <= 0 {
		panic(fmt.Sprintf("oscache: empty IO: %v", req))
	}
	c.inflight++
	req.DispatchTime = c.eng.Now()
	c.rec.DevEnter(metrics.RCache, req)
	switch req.Op {
	case blockio.Write:
		first, last := c.span(req.Offset, req.Size)
		for p := first; p <= last; p++ {
			c.insert(p, true)
		}
		c.eng.After(c.hitLatency(), c.getOp(req).fireFn)
	case blockio.Read:
		if c.Resident(req.Offset, req.Size) {
			c.serveHit(req)
			return
		}
		c.misses++
		c.rec.Incr(metrics.RCache, metrics.CCacheMiss)
		c.readThrough(req)
	default:
		panic(fmt.Sprintf("oscache: unsupported op %v", req.Op))
	}
}

// serveHit completes a fully-resident read at memory speed.
func (c *Cache) serveHit(req *blockio.Request) {
	c.hits++
	c.rec.Incr(metrics.RCache, metrics.CCacheHit)
	c.touchRange(req.Offset, req.Size)
	c.eng.After(c.hitLatency(), c.getOp(req).fireFn)
}

// SubmitResident serves a read the caller has already verified fully
// resident (MittCache's read()-fast-path admission does the page-table walk
// itself, §4.4). Observable behavior is identical to Submit on a resident
// read; only the duplicate residency walk is skipped.
func (c *Cache) SubmitResident(req *blockio.Request) {
	if req.Size <= 0 || req.Op != blockio.Read {
		panic(fmt.Sprintf("oscache: SubmitResident on non-read: %v", req))
	}
	c.inflight++
	req.DispatchTime = c.eng.Now()
	c.rec.DevEnter(metrics.RCache, req)
	c.serveHit(req)
}

// Prefetch populates the pages of [off,size) in the background with no
// waiting client — the "MittCache should continue swapping in the data in
// the background, even after EBUSY is already returned" rule (§4.4).
func (c *Cache) Prefetch(off int64, size int, class blockio.Class, prio int, proc int) {
	if c.Resident(off, size) {
		return
	}
	c.rec.Incr(metrics.RCache, metrics.CPrefetch)
	op := c.getOp(nil)
	op.first, op.last = c.span(off, size)
	sub := c.reqs.Get()
	sub.ID = c.ids.Next()
	sub.Op = blockio.Read
	sub.Offset, sub.Size = off, size
	sub.Proc, sub.Class, sub.Priority = proc, class, prio
	sub.SubmitTime = c.eng.Now()
	sub.OnComplete = op.fillFn
	sub.AutoFree = true
	c.backing.Submit(sub)
}

// readThrough fetches the full request range from the backing device
// (kernel readahead reads whole pages), inserts the pages, then completes
// the client request.
func (c *Cache) readThrough(req *blockio.Request) {
	ps := int64(c.cfg.PageSize)
	first, last := c.span(req.Offset, req.Size)
	op := c.getOp(req)
	op.first, op.last = first, last
	sub := c.reqs.Get()
	sub.ID = c.ids.Next()
	sub.Op = blockio.Read
	sub.Offset, sub.Size = first*ps, int((last-first+1)*ps)
	sub.Proc, sub.Class, sub.Priority = req.Proc, req.Class, req.Priority
	sub.Deadline = req.Deadline
	sub.SubmitTime = c.eng.Now()
	sub.OnComplete = op.fillFn
	sub.AutoFree = true
	c.backing.Submit(sub)
}

func (c *Cache) complete(req *blockio.Request) {
	req.CompleteTime = c.eng.Now()
	c.inflight--
	c.rec.DevDone(metrics.RCache, req)
	if req.OnComplete != nil {
		req.OnComplete(req)
	}
}

// Intrusive-LRU plumbing.

// pageSlabSize batches page allocations: experiment-scale workloads touch
// hundreds of thousands of distinct pages, and one heap object per page
// dominated the allocation profile. Pages recycle through the freelist
// forever, so slabs only grow the footprint to the peak resident set.
const pageSlabSize = 1024

// PageSlab is a page freelist with slab-batched growth, plus the page-table
// slot arrays of reclaimed caches. The zero value is ready to use; a shared
// slab (Config.Slab) lets consecutive experiment legs reuse one
// peak-resident-set worth of page structs and page tables instead of
// growing fresh ones per cache.
type PageSlab struct {
	free   *page
	tables [][]pageSlot // cleared slot arrays parked by Cache.Reclaim
}

// table returns a cleared slot array of at least n slots, reusing a parked
// one when one is large enough.
func (s *PageSlab) table(n int) []pageSlot {
	last := len(s.tables) - 1
	for i := last; i >= 0; i-- {
		if t := s.tables[i]; len(t) >= n {
			s.tables[i] = s.tables[last]
			s.tables[last] = nil
			s.tables = s.tables[:last]
			return t
		}
	}
	if last >= 0 {
		// None fits: drop a too-small one, so parked arrays never
		// outnumber the caches that parked them.
		s.tables[last] = nil
		s.tables = s.tables[:last]
	}
	return make([]pageSlot, n)
}

// parkTable clears a retired cache's slot array and keeps it for reuse.
func (s *PageSlab) parkTable(slots []pageSlot) {
	if slots == nil {
		return
	}
	clear(slots)
	s.tables = append(s.tables, slots)
}

func (s *PageSlab) get() *page {
	if s.free == nil {
		slab := make([]page, pageSlabSize)
		for i := range slab {
			slab[i].next = s.free
			s.free = &slab[i]
		}
	}
	pg := s.free
	s.free = pg.next
	pg.next = nil
	return pg
}

func (s *PageSlab) put(pg *page) {
	*pg = page{next: s.free}
	s.free = pg
}

func (c *Cache) getPage() *page    { return c.slab.get() }
func (c *Cache) freePage(pg *page) { c.slab.put(pg) }

func (c *Cache) pushFront(pg *page) {
	pg.prev = nil
	pg.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = pg
	}
	c.lruHead = pg
	if c.lruTail == nil {
		c.lruTail = pg
	}
	c.resident++
}

func (c *Cache) unlink(pg *page) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		c.lruHead = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		c.lruTail = pg.prev
	}
	pg.prev, pg.next = nil, nil
	c.resident--
}

func (c *Cache) moveToFront(pg *page) {
	if c.lruHead == pg {
		return
	}
	c.unlink(pg)
	c.pushFront(pg)
}

// insert makes a page resident (touching it if already resident), evicting
// the LRU page when at capacity.
func (c *Cache) insert(id int64, dirty bool) {
	e := c.table.claim(id)
	if pg := e.pg; pg != nil {
		pg.dirty = pg.dirty || dirty
		c.moveToFront(pg)
		return
	}
	// Evicting only turns other entries into shadows; no claim runs in
	// between, so e stays valid.
	for c.resident >= c.cfg.CapacityPages {
		c.evictLRU()
	}
	pg := c.getPage()
	pg.id, pg.dirty = id, dirty
	c.pushFront(pg)
	e.pg = pg
}

func (c *Cache) touchRange(off int64, size int) {
	first, last := c.span(off, size)
	for p := first; p <= last; p++ {
		if e := c.table.find(p); e != nil && e.pg != nil {
			c.moveToFront(e.pg)
		}
	}
}

func (c *Cache) evictLRU() {
	if c.lruTail == nil {
		return
	}
	c.evictPage(c.lruTail)
}

func (c *Cache) evictPage(pg *page) { c.evict(c.table.find(pg.id)) }

// evict drops the resident page of entry e, leaving e as a shadow entry.
func (c *Cache) evict(e *pageSlot) {
	pg := e.pg
	e.pg = nil
	c.unlink(pg)
	c.evictions++
	c.rec.Incr(metrics.RCache, metrics.CEviction)
	if pg.dirty {
		// Write-back on eviction, fire-and-forget at idle priority.
		wb := c.reqs.Get()
		wb.ID = c.ids.Next()
		wb.Op = blockio.Write
		wb.Offset, wb.Size = pg.id*int64(c.cfg.PageSize), c.cfg.PageSize
		wb.Class, wb.Priority = blockio.ClassIdle, 7
		wb.SubmitTime = c.eng.Now()
		wb.AutoFree = true
		c.backing.Submit(wb)
	}
	c.freePage(pg)
}

// EvictRange drops the pages covering [off, off+size), the moral equivalent
// of posix_fadvise(DONTNEED) — §7.1 uses it to "throw away about 20% of the
// cached data".
func (c *Cache) EvictRange(off int64, size int) {
	first, last := c.span(off, size)
	for p := first; p <= last; p++ {
		if e := c.table.find(p); e != nil && e.pg != nil {
			c.evict(e)
		}
	}
}

// EvictFraction drops approximately frac of the resident set, chosen
// pseudo-randomly — the manual swapping methodology of §7.4.
func (c *Cache) EvictFraction(frac float64, rng *sim.RNG) {
	if frac <= 0 {
		return
	}
	c.victims = c.victims[:0]
	// Iterate the LRU list for deterministic order, then sample.
	for pg := c.lruHead; pg != nil; pg = pg.next {
		if rng.Bool(frac) {
			c.victims = append(c.victims, pg)
		}
	}
	for i, pg := range c.victims {
		c.evictPage(pg)
		c.victims[i] = nil
	}
	c.victims = c.victims[:0]
}

// Balloon shrinks the cache capacity by nPages (another tenant's VM balloon
// inflating, §6's "VM ballooning effect"), evicting immediately if needed.
// Negative nPages grows the capacity back.
func (c *Cache) Balloon(nPages int) {
	c.cfg.CapacityPages -= nPages
	if c.cfg.CapacityPages < 1 {
		c.cfg.CapacityPages = 1
	}
	for c.resident > c.cfg.CapacityPages {
		c.evictLRU()
	}
}

// Warm loads [off, off+size) into the cache instantly (experiment setup:
// "we pre-read 3.5GB file", §6) without consuming virtual time.
func (c *Cache) Warm(off int64, size int) {
	first, last := c.span(off, size)
	for p := first; p <= last; p++ {
		c.insert(p, false)
	}
}
