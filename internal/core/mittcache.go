package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/metrics"
	"mittos/internal/oscache"
	"mittos/internal/sim"
)

// MittCache is MittOS integrated with OS cache management (§4.4).
//
// For read()-path IOs it walks the page tables: fully-resident reads are
// served at memory speed; misses propagate the deadline to the IO layer
// below, with one extra check — if the deadline is smaller than the
// smallest possible device IO latency, the user expected an in-memory read
// and EBUSY is returned immediately. For mmap-path accesses, AddrCheck
// models the paper's addrcheck() system call (an 82ns page-table walk).
//
// Two §4.4 caveats are implemented: EBUSY signals memory-space contention
// (pages that were resident and got swapped out), never first-time cold
// accesses; and after EBUSY the data continues to be swapped in, in the
// background, so the cache stays warm for applications that expect memory
// residency.
type MittCache struct {
	// k is held by name, not embedded: the residency walk is exact, so
	// MittCache takes no error injection and forwards only the rest.
	k     kernel
	cache *oscache.Cache
	lower Target
	// minIO is the smallest possible IO latency of the layer below; a
	// deadline under it means "I expect a cache hit".
	minIO time.Duration

	hits   sim.Freelist[cacheHitOp]
	misses sim.Freelist[cacheMissOp]
}

// cacheHitOp is the pooled completion wrapper for write-absorb and hit
// paths (prev + onDone(nil)).
type cacheHitOp struct {
	m      *MittCache
	prev   func(*blockio.Request)
	onDone func(error)
	fn     func(*blockio.Request) // pre-bound op.done
}

func (op *cacheHitOp) Bind() { op.fn = op.done }

func (op *cacheHitOp) done(r *blockio.Request) {
	m, prev, onDone := op.m, op.prev, op.onDone
	op.prev, op.onDone = nil, nil
	m.hits.Release(op)
	if prev != nil {
		prev(r)
	}
	onDone(nil)
}

// wrapHit chains the pooled completion wrapper onto req.
func (m *MittCache) wrapHit(req *blockio.Request, onDone func(error)) {
	op := sim.Acquire(&m.hits)
	op.m, op.prev, op.onDone = m, req.OnComplete, onDone
	req.OnComplete = op.fn
}

func (m *MittCache) submitHit(req *blockio.Request, onDone func(error)) {
	m.wrapHit(req, onDone)
	m.cache.Submit(req)
}

// submitResident is submitHit for a read whose residency the admission
// check above just verified: the cache can skip its duplicate page-table
// walk (the SubmitSLO fast path would otherwise walk every page twice).
func (m *MittCache) submitResident(req *blockio.Request, onDone func(error)) {
	m.wrapHit(req, onDone)
	m.cache.SubmitResident(req)
}

// cacheMissOp is the pooled lower-layer callback for the miss path: warm
// the cache on success, then hand the verdict up.
type cacheMissOp struct {
	m      *MittCache
	req    *blockio.Request
	onDone func(error)
	fn     func(error) // pre-bound op.done
}

func (op *cacheMissOp) Bind() { op.fn = op.done }

func (op *cacheMissOp) done(err error) {
	m, req, onDone := op.m, op.req, op.onDone
	op.req, op.onDone = nil, nil
	m.misses.Release(op)
	if err == nil {
		m.cache.Warm(req.Offset, req.Size)
	}
	onDone(err)
}

// NewMittCache builds the layer over a page cache and the (Mitt-wrapped)
// IO path below it. minIO is the smallest possible IO latency of the
// backing device (e.g. ~100µs for flash, ~300µs sequential disk).
func NewMittCache(eng *sim.Engine, cache *oscache.Cache, lower Target, minIO time.Duration, opt Options) *MittCache {
	return &MittCache{k: newKernel(eng, metrics.RMittCache, opt), cache: cache, lower: lower, minIO: minIO}
}

// SetRecorder attaches a metrics recorder (nil disables, the default).
func (m *MittCache) SetRecorder(rec *metrics.Recorder) { m.k.SetRecorder(rec) }

// SetMiscalibration distorts the layer's miss-cost estimate (minIO) to
// minIO×scale + bias (scale 0 = no scaling; (0,0) restores it). MittCache's
// residency walk is exact, so this is the only prediction it can get wrong.
func (m *MittCache) SetMiscalibration(bias time.Duration, scale float64) {
	m.k.SetMiscalibration(bias, scale)
}

// Accuracy returns shadow-mode counters. MittCache predictions are exact
// page-table lookups ("there is no accuracy issues", §4.4), so FP/FN stay
// zero; the method exists for interface symmetry and tests.
func (m *MittCache) Accuracy() Accuracy { return m.k.Accuracy() }

// Counts returns accepted/rejected totals.
func (m *MittCache) Counts() (accepted, rejected uint64) { return m.k.Counts() }

// AddrCheck models the addrcheck(&buf, size, deadline) system call: a
// page-table walk before dereferencing an mmap-ed pointer. It returns nil
// when the application may proceed (data resident, or a miss it is willing
// to wait for) and EBUSY when the data was swapped out under memory
// contention and the deadline expects residency. The walk costs
// cache.AddrCheckCost() (82ns) — negligible, so it is not modeled as an
// event, matching the paper's measurement.
func (m *MittCache) AddrCheck(off int64, size int, deadline time.Duration) error {
	if m.cache.Resident(off, size) {
		return nil
	}
	missCost := m.k.adjust(m.minIO)
	if deadline > blockio.NoDeadline && deadline < missCost && m.cache.WasEverResident(off, size) {
		m.k.rejected++
		// addrcheck has no request descriptor; only the counter moves.
		m.k.rec.Incr(metrics.RMittCache, metrics.CRejected)
		// Keep swapping the data in behind the EBUSY (§4.4).
		m.cache.Prefetch(off, size, blockio.ClassBestEffort, 4, -1)
		return &BusyError{PredictedWait: missCost}
	}
	return nil
}

// SubmitSLO implements Target for the read()-with-deadline path.
func (m *MittCache) SubmitSLO(req *blockio.Request, onDone func(error)) {
	if req.SubmitTime == 0 {
		req.SubmitTime = m.k.eng.Now()
	}
	if req.Op == blockio.Write {
		// Writes are absorbed by the cache; no deadline semantics (§7.8.6).
		m.submitHit(req, onDone)
		return
	}

	if m.cache.Resident(req.Offset, req.Size) {
		m.k.accepted++
		m.k.rec.Incr(metrics.RMittCache, metrics.CAccepted)
		m.submitResident(req, onDone) // hit path, residency just verified
		return
	}

	// Miss. The in-memory-expectation check (§4.4): a deadline below any
	// possible IO latency plus evidence of prior residency = memory-space
	// contention → EBUSY, with background swap-in.
	hasSLO := req.Deadline > blockio.NoDeadline
	missCost := m.k.adjust(m.minIO)
	if hasSLO && req.Deadline < missCost && !m.k.shadow &&
		m.cache.WasEverResident(req.Offset, req.Size) {
		m.cache.Prefetch(req.Offset, req.Size, req.Class, req.Priority, req.Proc)
		m.k.reject(req, onDone, missCost, false)
		return
	}

	// Propagate the deadline to the IO layer below (§4.4), reading whole
	// pages and populating the cache on success.
	m.k.accepted++
	m.k.rec.Incr(metrics.RMittCache, metrics.CAccepted)
	op := sim.Acquire(&m.misses)
	op.m, op.req, op.onDone = m, req, onDone
	m.lower.SubmitSLO(req, op.fn)
}
