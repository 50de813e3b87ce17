package oscache

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

// fakeDevice completes every IO after a fixed delay and records them.
type fakeDevice struct {
	eng      *sim.Engine
	delay    time.Duration
	inflight int
	seen     []*blockio.Request
}

func (f *fakeDevice) Submit(req *blockio.Request) {
	f.inflight++
	f.seen = append(f.seen, req)
	req.DispatchTime = f.eng.Now()
	f.eng.Schedule(f.delay, func() {
		req.CompleteTime = f.eng.Now()
		f.inflight--
		if req.OnComplete != nil {
			req.OnComplete(req)
		}
	})
}

func (f *fakeDevice) InFlight() int { return f.inflight }

func newTestCache(capPages int) (*sim.Engine, *Cache, *fakeDevice) {
	eng := sim.NewEngine()
	dev := &fakeDevice{eng: eng, delay: 8 * time.Millisecond}
	cfg := DefaultConfig()
	cfg.CapacityPages = capPages
	return eng, New(eng, cfg, dev), dev
}

func readReq(eng *sim.Engine, off int64, size int, lat *time.Duration) *blockio.Request {
	r := &blockio.Request{Op: blockio.Read, Offset: off, Size: size, SubmitTime: eng.Now()}
	r.OnComplete = func(r *blockio.Request) { *lat = r.Latency() }
	return r
}

func TestHitIsFast(t *testing.T) {
	eng, c, dev := newTestCache(100)
	c.Warm(0, 4096)
	var lat time.Duration
	c.Submit(readReq(eng, 0, 4096, &lat))
	eng.Run()
	if lat != c.Config().HitLatency {
		t.Fatalf("hit latency %v, want %v", lat, c.Config().HitLatency)
	}
	if len(dev.seen) != 0 {
		t.Fatal("hit should not touch the backing device")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("stats hits=%d misses=%d", hits, misses)
	}
}

func TestMissReadsThrough(t *testing.T) {
	eng, c, dev := newTestCache(100)
	var lat time.Duration
	c.Submit(readReq(eng, 0, 4096, &lat))
	eng.Run()
	if lat < dev.delay {
		t.Fatalf("miss latency %v < device delay %v", lat, dev.delay)
	}
	if !c.Resident(0, 4096) {
		t.Fatal("page not resident after read-through")
	}
	// Second read is a hit.
	var lat2 time.Duration
	c.Submit(readReq(eng, 0, 4096, &lat2))
	eng.Run()
	if lat2 != c.Config().HitLatency {
		t.Fatalf("second read latency %v, want hit", lat2)
	}
}

func TestMissReadsWholePages(t *testing.T) {
	eng, c, dev := newTestCache(100)
	var lat time.Duration
	c.Submit(readReq(eng, 100, 8, &lat)) // 8 bytes in the middle of page 0
	eng.Run()
	if len(dev.seen) != 1 {
		t.Fatalf("backing IOs = %d", len(dev.seen))
	}
	if dev.seen[0].Offset != 0 || dev.seen[0].Size != c.Config().PageSize {
		t.Fatalf("backing IO %v; want whole page", dev.seen[0])
	}
}

func TestLRUEviction(t *testing.T) {
	eng, c, _ := newTestCache(2)
	ps := int64(c.Config().PageSize)
	c.Warm(0*ps, 4096)
	c.Warm(1*ps, 4096)
	// Touch page 0 so page 1 is LRU.
	var lat time.Duration
	c.Submit(readReq(eng, 0, 4096, &lat))
	eng.Run()
	c.Warm(2*ps, 4096) // evicts page 1
	if !c.Resident(0, 4096) {
		t.Fatal("recently used page evicted")
	}
	if c.Resident(ps, 4096) {
		t.Fatal("LRU page not evicted")
	}
	if !c.Resident(2*ps, 4096) {
		t.Fatal("new page not resident")
	}
}

func TestWriteAbsorbedAndFlushedOnEviction(t *testing.T) {
	eng, c, dev := newTestCache(1)
	var lat time.Duration
	w := &blockio.Request{Op: blockio.Write, Offset: 0, Size: 4096, SubmitTime: eng.Now()}
	w.OnComplete = func(r *blockio.Request) { lat = r.Latency() }
	c.Submit(w)
	eng.Run()
	if lat != c.Config().HitLatency {
		t.Fatalf("write latency %v, want absorbed", lat)
	}
	if len(dev.seen) != 0 {
		t.Fatal("dirty page flushed too early")
	}
	// Evict it: the dirty page must be written back.
	c.Warm(int64(c.Config().PageSize), 4096)
	eng.Run()
	if len(dev.seen) != 1 || dev.seen[0].Op != blockio.Write {
		t.Fatalf("expected 1 write-back, got %v", dev.seen)
	}
}

func TestEvictRange(t *testing.T) {
	_, c, _ := newTestCache(100)
	ps := int64(c.Config().PageSize)
	c.Warm(0, int(4*ps))
	c.EvictRange(ps, int(2*ps))
	if c.Resident(ps, 4096) || c.Resident(2*ps, 4096) {
		t.Fatal("fadvised pages still resident")
	}
	if !c.Resident(0, 4096) || !c.Resident(3*ps, 4096) {
		t.Fatal("untargeted pages evicted")
	}
}

func TestEvictFraction(t *testing.T) {
	_, c, _ := newTestCache(10000)
	ps := int64(c.Config().PageSize)
	n := 1000
	c.Warm(0, int(int64(n)*ps))
	c.EvictFraction(0.2, sim.NewRNG(1, "evict"))
	got := c.ResidentPages()
	if got < 700 || got > 900 {
		t.Fatalf("after 20%% eviction: %d of %d pages resident", got, n)
	}
}

func TestWasEverResidentDistinguishesColdMisses(t *testing.T) {
	_, c, _ := newTestCache(100)
	ps := int64(c.Config().PageSize)
	if c.WasEverResident(0, 4096) {
		t.Fatal("cold page reported as previously resident")
	}
	c.Warm(0, 4096)
	c.EvictRange(0, 4096)
	if c.Resident(0, 4096) {
		t.Fatal("evicted page still resident")
	}
	if !c.WasEverResident(0, 4096) {
		t.Fatal("re-evicted page not flagged as memory contention")
	}
	_ = ps
}

func TestBalloonShrinksResidentSet(t *testing.T) {
	_, c, _ := newTestCache(100)
	ps := int64(c.Config().PageSize)
	c.Warm(0, int(100*ps))
	if c.ResidentPages() != 100 {
		t.Fatalf("warm pages = %d", c.ResidentPages())
	}
	c.Balloon(60)
	if c.ResidentPages() != 40 {
		t.Fatalf("after balloon: %d pages, want 40", c.ResidentPages())
	}
	c.Balloon(-60)
	c.Warm(0, int(100*ps))
	if c.ResidentPages() != 100 {
		t.Fatalf("after deflate: %d pages, want 100", c.ResidentPages())
	}
}

func TestPrefetchPopulatesInBackground(t *testing.T) {
	eng, c, dev := newTestCache(100)
	c.Prefetch(0, 4096, blockio.ClassBestEffort, 4, 1)
	if c.Resident(0, 4096) {
		t.Fatal("prefetch resident before device completed")
	}
	eng.Run()
	if !c.Resident(0, 4096) {
		t.Fatal("prefetch did not populate")
	}
	if len(dev.seen) != 1 {
		t.Fatalf("backing IOs = %d", len(dev.seen))
	}
	// Prefetching a resident range is a no-op.
	c.Prefetch(0, 4096, blockio.ClassBestEffort, 4, 1)
	eng.Run()
	if len(dev.seen) != 1 {
		t.Fatal("redundant prefetch hit the device")
	}
}

func TestDeadlinePropagatedToBackingIO(t *testing.T) {
	eng, c, dev := newTestCache(100)
	var lat time.Duration
	r := readReq(eng, 0, 4096, &lat)
	r.Deadline = 20 * time.Millisecond
	c.Submit(r)
	eng.Run()
	if dev.seen[0].Deadline != 20*time.Millisecond {
		t.Fatalf("backing deadline = %v; §4.4 requires propagation", dev.seen[0].Deadline)
	}
}

func TestAddrCheckCost(t *testing.T) {
	_, c, _ := newTestCache(10)
	if c.AddrCheckCost() != 82*time.Nanosecond {
		t.Fatalf("addrcheck cost %v", c.AddrCheckCost())
	}
}

func TestInFlightAccounting(t *testing.T) {
	eng, c, _ := newTestCache(10)
	var lat time.Duration
	c.Submit(readReq(eng, 0, 4096, &lat))
	if c.InFlight() != 1 {
		t.Fatalf("InFlight = %d", c.InFlight())
	}
	eng.Run()
	if c.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", c.InFlight())
	}
}

func TestEmptyIOPanics(t *testing.T) {
	_, c, _ := newTestCache(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Submit(&blockio.Request{Op: blockio.Read, Offset: 0, Size: 0})
}

func TestPropertyResidencyNeverExceedsCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		eng, c, _ := newTestCache(8)
		ps := int64(c.Config().PageSize)
		for _, op := range ops {
			pageID := int64(op % 64)
			switch op % 3 {
			case 0:
				c.Warm(pageID*ps, 4096)
			case 1:
				w := &blockio.Request{Op: blockio.Write, Offset: pageID * ps, Size: 4096}
				w.OnComplete = func(*blockio.Request) {}
				c.Submit(w)
			case 2:
				c.EvictRange(pageID*ps, 4096)
			}
			if c.ResidentPages() > 8 {
				return false
			}
		}
		eng.Run()
		return c.ResidentPages() <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyResidentImpliesWasEverResident(t *testing.T) {
	f := func(pagesRaw []uint8) bool {
		_, c, _ := newTestCache(16)
		ps := int64(c.Config().PageSize)
		for _, p := range pagesRaw {
			c.Warm(int64(p)*ps, 4096)
		}
		for _, p := range pagesRaw {
			off := int64(p) * ps
			if c.Resident(off, 4096) && !c.WasEverResident(off, 4096) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// cacheModel is the reference the page table is checked against: the two
// maps the cache kept before it had one (residency, with each page's dirty
// bit, and the ever-resident set), plus the LRU order as a slice, most
// recently used first. Read-through and prefetch fills are queued and
// applied when the engine runs, in submission order, as the device
// completes them.
type cacheModel struct {
	capacity     int
	pages        map[int64]bool // resident page → dirty
	everResident map[int64]bool
	lru          []int64
	fills        [][2]int64 // pending [first, last] page fills

	hits, misses, evictions, writebacks uint64
}

func (m *cacheModel) moveToFront(id int64) {
	i := slices.Index(m.lru, id)
	copy(m.lru[1:i+1], m.lru[:i])
	m.lru[0] = id
}

func (m *cacheModel) insert(id int64, dirty bool) {
	if d, ok := m.pages[id]; ok {
		m.pages[id] = d || dirty
		m.moveToFront(id)
		return
	}
	for len(m.lru) >= m.capacity {
		m.evict(m.lru[len(m.lru)-1])
	}
	m.lru = slices.Insert(m.lru, 0, id)
	m.pages[id] = dirty
	m.everResident[id] = true
}

func (m *cacheModel) evict(id int64) {
	i := slices.Index(m.lru, id)
	m.lru = slices.Delete(m.lru, i, i+1)
	if m.pages[id] {
		m.writebacks++
	}
	delete(m.pages, id)
	m.evictions++
}

func (m *cacheModel) resident(first, last int64) bool {
	for p := first; p <= last; p++ {
		if _, ok := m.pages[p]; !ok {
			return false
		}
	}
	return true
}

func (m *cacheModel) shrinkTo(capacity int) {
	m.capacity = max(capacity, 1)
	for len(m.lru) > m.capacity {
		m.evict(m.lru[len(m.lru)-1])
	}
}

// fuzzPageSpace bounds the page ids the fuzzer touches: large against the
// 4–35 page capacities, so shadow entries pile up well past the table's
// pre-size.
const fuzzPageSpace = 1024

// runPageCacheProgram decodes data into a cache capacity and a sequence of
// cache operations, runs them against both the cache and cacheModel, and
// checks every observable after each one. It returns how many times the
// page table doubled.
func runPageCacheProgram(t *testing.T, data []byte) (growths int) {
	t.Helper()
	if len(data) == 0 {
		return 0
	}
	capacity := 4 + int(data[0]%32)
	eng, c, dev := newTestCache(capacity)
	ps := int64(c.Config().PageSize)
	initialSlots := len(c.table.slots)
	m := &cacheModel{capacity: capacity, pages: map[int64]bool{}, everResident: map[int64]bool{}}
	rng, modelRNG := sim.NewRNG(7, "fuzz-evict"), sim.NewRNG(7, "fuzz-evict")
	noop := func(*blockio.Request) {}

	run := func() {
		eng.Run()
		for _, f := range m.fills {
			for p := f[0]; p <= f[1]; p++ {
				m.insert(p, false)
			}
		}
		m.fills = m.fills[:0]
	}
	check := func(step int) {
		t.Helper()
		if got := c.ResidentPages(); got != len(m.lru) {
			t.Fatalf("step %d: ResidentPages %d, model %d", step, got, len(m.lru))
		}
		if h, mi, ev := c.Stats(); h != m.hits || mi != m.misses || ev != m.evictions {
			t.Fatalf("step %d: Stats (%d, %d, %d), model (%d, %d, %d)",
				step, h, mi, ev, m.hits, m.misses, m.evictions)
		}
		i := 0
		for pg := c.lruHead; pg != nil; pg = pg.next {
			if i >= len(m.lru) || pg.id != m.lru[i] || pg.dirty != m.pages[pg.id] {
				t.Fatalf("step %d: LRU position %d holds page %d (dirty %v), model %v",
					step, i, pg.id, pg.dirty, m.lru)
			}
			i++
		}
		for p := int64(0); p < fuzzPageSpace; p++ {
			_, res := m.pages[p]
			if got := c.Resident(p*ps, int(ps)); got != res {
				t.Fatalf("step %d: Resident(page %d) = %v, model %v", step, p, got, res)
			}
			if got := c.WasEverResident(p*ps, int(ps)); got != m.everResident[p] {
				t.Fatalf("step %d: WasEverResident(page %d) = %v, model %v",
					step, p, got, m.everResident[p])
			}
		}
		if c.table.n != len(m.everResident) || 2*c.table.n > len(c.table.slots) {
			t.Fatalf("step %d: page table holds %d entries in %d slots; model has %d pages ever resident",
				step, c.table.n, len(c.table.slots), len(m.everResident))
		}
	}

	prog := data[1:]
	if len(prog) > 4*256 {
		prog = prog[:4*256]
	}
	for step := 0; step+4 <= len(prog); step += 4 {
		op, a, b, n := prog[step], prog[step+1], prog[step+2], prog[step+3]
		page := (int64(a)<<8 | int64(b)) % fuzzPageSpace
		npages := 1 + int64(n%4)
		// Reads and writes may start mid-page and end short of a page
		// boundary; the span they cover is still [first, last].
		off, size := page*ps+int64(n>>6)*100, int(npages*ps)-int(n>>6)*100
		first, last := page, page+npages-1
		switch op % 9 {
		case 0: // read Submit: a hit touches, a miss reads through
			if m.resident(first, last) {
				m.hits++
				for p := first; p <= last; p++ {
					m.moveToFront(p)
				}
			} else {
				m.misses++
				m.fills = append(m.fills, [2]int64{first, last})
			}
			c.Submit(&blockio.Request{Op: blockio.Read, Offset: off, Size: size, OnComplete: noop})
		case 1: // write Submit: absorbed dirty
			for p := first; p <= last; p++ {
				m.insert(p, true)
			}
			c.Submit(&blockio.Request{Op: blockio.Write, Offset: off, Size: size, OnComplete: noop})
		case 2: // Warm a run of up to 64 pages
			span := 1 + int64(n%64)
			for p := page; p < page+span; p++ {
				m.insert(p, false)
			}
			c.Warm(page*ps, int(span*ps))
		case 3:
			for p := first; p <= last; p++ {
				if _, ok := m.pages[p]; ok {
					m.evict(p)
				}
			}
			c.EvictRange(off, size)
		case 4:
			frac := float64(a%50+1) / 100
			var victims []int64
			for _, id := range m.lru {
				if modelRNG.Bool(frac) {
					victims = append(victims, id)
				}
			}
			for _, id := range victims {
				m.evict(id)
			}
			c.EvictFraction(frac, rng)
		case 5: // balloon inflates
			m.shrinkTo(m.capacity - int(n%16))
			c.Balloon(int(n % 16))
		case 6: // balloon deflates
			m.capacity += int(n % 16)
			c.Balloon(-int(n % 16))
		case 7:
			if !m.resident(first, last) {
				m.fills = append(m.fills, [2]int64{first, last})
			}
			c.Prefetch(off, size, blockio.ClassBestEffort, 4, 1)
		case 8:
			run()
		}
		check(step / 4)
	}
	run()
	check(len(prog) / 4)
	var writes uint64
	for _, r := range dev.seen {
		if r.Op == blockio.Write {
			writes++
		}
	}
	if writes != m.writebacks {
		t.Fatalf("%d write-backs reached the device, model evicted %d dirty pages", writes, m.writebacks)
	}
	for s := initialSlots; s < len(c.table.slots); s *= 2 {
		growths++
	}
	return growths
}

// pageCacheSeed is a deterministic program that mixes every operation and
// sweeps enough distinct pages to double the page table at least twice.
func pageCacheSeed(capacity byte, ops int, salt string) []byte {
	rng := sim.NewRNG(1, salt)
	data := []byte{capacity}
	for i := 0; i < ops; i++ {
		data = append(data, byte(rng.Intn(9)), byte(rng.Intn(4)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return data
}

// FuzzPageCache drives the cache with random sequences of read and write
// Submits, Warm, EvictRange, EvictFraction, Balloon in both directions and
// Prefetch, and checks it after every operation against cacheModel:
// residency, ever-residency (the shadow entries), the resident count, the
// hit/miss/eviction counters, the LRU order with each page's dirty bit, and
// the page table's entry count and load factor.
func FuzzPageCache(f *testing.F) {
	f.Add(pageCacheSeed(8, 200, "a"))
	f.Add(pageCacheSeed(31, 200, "b"))
	f.Add([]byte{0, 2, 0, 0, 63, 3, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{4, 1, 0, 1, 3, 5, 0, 0, 8, 2, 0, 9, 63, 4, 20, 0, 0, 0, 0, 1, 0, 8, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runPageCacheProgram(t, data)
	})
}

// TestPageCacheSeedGrowsTable pins that the fuzz seeds really exercise
// page-table growth past its pre-size, with shadows rehashed along.
func TestPageCacheSeedGrowsTable(t *testing.T) {
	for _, salt := range []string{"a", "b"} {
		if g := runPageCacheProgram(t, pageCacheSeed(8, 200, salt)); g < 2 {
			t.Fatalf("seed %q grew the page table %d times; want at least 2", salt, g)
		}
	}
}

// TestReclaimRecyclesPageTable checks that a cache reclaimed onto a shared
// PageSlab hands its page table to the next cache built on that slab, and
// that the next cache starts with no entries, shadows included.
func TestReclaimRecyclesPageTable(t *testing.T) {
	eng := sim.NewEngine()
	dev := &fakeDevice{eng: eng, delay: time.Millisecond}
	var slab PageSlab
	cfg := DefaultConfig()
	cfg.CapacityPages = 64
	cfg.Slab = &slab
	ps := int64(cfg.PageSize)

	c := New(eng, cfg, dev)
	c.Warm(0, int(1000*ps)) // grows the table well past its pre-size
	c.EvictRange(0, int(10*ps))
	slots := c.table.slots
	c.Reclaim()

	next := New(eng, cfg, dev)
	if &next.table.slots[0] != &slots[0] || len(next.table.slots) != len(slots) {
		t.Fatal("the next cache on the slab did not reuse the reclaimed page table")
	}
	if next.table.n != 0 || next.WasEverResident(0, int(ps)) || next.WasEverResident(999*ps, int(ps)) {
		t.Fatal("the recycled page table kept entries from the reclaimed cache")
	}
	for i, s := range next.table.slots {
		if s != (pageSlot{}) {
			t.Fatalf("recycled slot %d not cleared: %+v", i, s)
		}
	}
	next.Warm(0, int(ps))
	if !next.Resident(0, int(ps)) || next.ResidentPages() != 1 {
		t.Fatal("the recycled page table does not serve the next cache")
	}
}
