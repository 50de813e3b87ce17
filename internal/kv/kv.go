// Package kv implements a LevelDB-shaped single-node storage engine: a
// memtable absorbing writes, a write-ahead log, immutable sorted runs laid
// out on the device address space with in-memory block indexes, and
// background compaction. Reads descend memtable → runs and issue exactly
// one block IO through the SLO-aware storage stack — the engine the paper
// modifies to call MittOS system calls ("we first modify LevelDB to use
// MITTOS system calls, and then the returned EBUSY is propagated to Riak",
// §5).
package kv

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/core"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("kv: key not found")

// Config shapes the engine.
type Config struct {
	// BlockSize is the on-device record block (4KB: a 1KB value plus
	// key/metadata padding rounds to one page).
	BlockSize int
	// MemtableCap is the number of entries buffered before a flush.
	MemtableCap int
	// MaxRuns triggers compaction when exceeded.
	MaxRuns int
	// RegionBase/RegionSize bound the device range the engine owns.
	RegionBase int64
	RegionSize int64
	// MemLatency is the cost of a memtable hit.
	MemLatency time.Duration
	// Proc/Class/Priority are the engine's IO identity.
	Proc     int
	Class    blockio.Class
	Priority int
	// Mmap selects the mmap read path (§5: "MongoDB by default uses
	// mmap() to read data file"): gets call addrcheck() before touching
	// the mapped block and page-fault on misses, instead of read().
	// Requires a MittCache target (set via UseMmap).
	Mmap bool
	// StallBytes is the background-IO high-water mark above which SLO puts
	// see flush/compaction backpressure: once the outstanding background
	// bytes (WAL groups, flush chunks, compaction churn) exceed it, the
	// predicted drain time is exposed as the put's predicted wait and puts
	// whose deadline it breaks are fast-rejected before the memtable
	// mutates. 0 disables the check.
	StallBytes int64
	// Reqs, when non-nil, is the block-IO request pool the store draws
	// from — injected so a fleet (or an experiment arena spanning legs) can
	// share one warm pool. Nil gets a private pool.
	Reqs *blockio.Pool
}

// DefaultConfig sizes the engine for a region of the given extent.
func DefaultConfig(base, size int64) Config {
	return Config{
		BlockSize:   4096,
		MemtableCap: 4096,
		MaxRuns:     6,
		RegionBase:  base,
		RegionSize:  size,
		MemLatency:  5 * time.Microsecond,
		Proc:        1,
		Class:       blockio.ClassBestEffort,
		Priority:    4,
		StallBytes:  1 << 20,
	}
}

// run is one immutable sorted table: its keys in ascending order, each
// key's block slot within the run's device extent being its rank. A run
// whose keys form the contiguous range [lo, hi] (the preloaded base run, a
// compaction of dense keys) stores only the range; any other keeps its
// sorted keys and finds a rank by binary search. stride is the slot
// spacing: flushed runs pack blocks contiguously (stride == block size),
// while the preloaded base run spreads them across the whole region the way
// a long-lived, fragmented database does — giving random gets realistic
// seek distances.
type run struct {
	base   int64
	stride int64
	lo, hi int64   // smallest and largest key
	n      int64   // number of keys
	keys   []int64 // sorted, unique; nil when the keys are exactly [lo, hi]
}

// newRun builds a run over non-empty sorted, unique keys, dropping the key
// slice when it is a contiguous range.
func newRun(base, stride int64, keys []int64) *run {
	r := &run{base: base, stride: stride, lo: keys[0], hi: keys[len(keys)-1], n: int64(len(keys))}
	if r.hi-r.lo+1 != r.n {
		r.keys = keys
	}
	return r
}

// key returns the run's i-th smallest key.
func (r *run) key(i int64) int64 {
	if r.keys == nil {
		return r.lo + i
	}
	return r.keys[i]
}

func (r *run) offsetOf(key int64, blockSize int) (int64, bool) {
	if key < r.lo || key > r.hi {
		return 0, false
	}
	slot := key - r.lo
	if r.keys != nil {
		i, ok := slices.BinarySearch(r.keys, key)
		if !ok {
			return 0, false
		}
		slot = int64(i)
	}
	stride := r.stride
	if stride < int64(blockSize) {
		stride = int64(blockSize)
	}
	return r.base + slot*stride, true
}

// Store is the engine.
type Store struct {
	eng    *sim.Engine
	cfg    Config
	target core.Target
	mcache *core.MittCache // non-nil in mmap mode
	ids    *blockio.IDGen

	runs     []*run  // newest first
	mergePos []int64 // compaction's per-run merge cursors
	alloc    int64   // bump allocator within the region
	walPos   int64

	// Per-IO pools: requests, fire-and-forget write completions, and
	// memory-latency completions. Steady-state operation recycles these
	// instead of allocating.
	reqs *blockio.Pool
	bgs  sim.Freelist[bgWrite]
	mems sim.Freelist[memOp]

	// Dense per-key state, indexed by key. Both arrays are allocated on the
	// first write, sized from the key count Preload recorded (preloaded),
	// and grow by doubling for inserts past it. mem is the memtable as a
	// bitset holding memN set bits; versions is each key's write count —
	// the replication timestamp consistency-aware failover compares
	// (§8.3). A key past the arrays is not in the memtable and is at its
	// preloaded base version 0.
	preloaded int64
	mem       []uint64
	memN      int
	versions  []uint32

	// SLO put path: the group-commit queue of deadline-carrying puts
	// awaiting a WAL append, the in-flight-group latch, and the group
	// context freelist. One WAL group IO is outstanding at a time — the
	// classic single-writer group commit.
	walPend []putWaiter
	walBusy bool
	groups  sim.Freelist[walGroup]

	// Backpressure accounting: outstanding background bytes and an EWMA of
	// the observed background service rate (ns/byte), measured from
	// completed background IOs. Their product predicts the drain time a
	// stalled put would wait out.
	bgBytes       int64
	ewmaNsPerByte float64

	// rec, when non-nil, records the put-path stage histograms
	// (wal-queue / wal-service / mem-ack) under the owning node's recorder.
	rec *metrics.Recorder

	gets, puts, flushes, compactions uint64
	walGroups, putRetries            uint64
}

// New builds a store over an SLO-aware storage target. The IDGen is shared
// with the rest of the node so request IDs stay unique.
func New(eng *sim.Engine, cfg Config, target core.Target, ids *blockio.IDGen) *Store {
	if cfg.BlockSize <= 0 || cfg.RegionSize <= 0 {
		panic("kv: invalid config")
	}
	if cfg.MemtableCap <= 0 {
		cfg.MemtableCap = 1024
	}
	if cfg.MaxRuns <= 1 {
		cfg.MaxRuns = 2
	}
	reqs := cfg.Reqs
	if reqs == nil {
		reqs = &blockio.Pool{}
	}
	return &Store{
		eng: eng, cfg: cfg, target: target, ids: ids,
		reqs:  reqs,
		alloc: cfg.RegionBase,
	}
}

// UseMmap switches the store to the mmap read path over the given
// MittCache: every Get does an addrcheck() page-table walk first; EBUSY
// from the walk propagates to the caller exactly as a read() rejection
// would, and misses the application is willing to wait for page-fault
// through the cache.
func (s *Store) UseMmap(mc *core.MittCache) {
	s.cfg.Mmap = true
	s.mcache = mc
}

// Mmap reports whether the store reads via the mmap path.
func (s *Store) Mmap() bool { return s.cfg.Mmap && s.mcache != nil }

// SetRecorder wires the put-path stage histograms (wal-queue, wal-service,
// mem-ack) to the owning node's recorder. A nil recorder (the default) keeps
// every stage observation a no-op.
func (s *Store) SetRecorder(rec *metrics.Recorder) { s.rec = rec }

// Stats returns operation counters.
func (s *Store) Stats() (gets, puts, flushes, compactions uint64) {
	return s.gets, s.puts, s.flushes, s.compactions
}

// WalGroups reports how many group-commit WAL IOs the store has issued.
func (s *Store) WalGroups() uint64 { return s.walGroups }

// PutRetries reports SLO puts re-queued into a fresh WAL group after their
// group was rejected on behalf of a tighter member deadline.
func (s *Store) PutRetries() uint64 { return s.putRetries }

// BackgroundBytes reports the outstanding background-write backlog — the
// flush/compaction pressure the SLO put path exposes as predicted wait.
func (s *Store) BackgroundBytes() int64 { return s.bgBytes }

// Runs returns the current number of immutable runs.
func (s *Store) Runs() int { return len(s.runs) }

// Preload installs keys [0, n) as one base run without consuming virtual
// time — the bulk-load phase every experiment starts from.
func (s *Store) Preload(n int64) {
	if n <= 0 {
		return
	}
	need := n * int64(s.cfg.BlockSize)
	if need > s.cfg.RegionSize {
		panic(fmt.Sprintf("kv: preload of %d keys exceeds region (%d > %d bytes)",
			n, need, s.cfg.RegionSize))
	}
	// Spread the base run across the usable region (minus the WAL tail)
	// so random gets seek like they would on a real aged database.
	const walReserve = 1024 * 4096 * 2
	usable := s.cfg.RegionSize - walReserve
	stride := (usable / n) &^ 4095
	if stride < int64(s.cfg.BlockSize) {
		stride = int64(s.cfg.BlockSize)
	}
	r := &run{base: s.cfg.RegionBase, stride: stride, lo: 0, hi: n - 1, n: n}
	s.runs = append([]*run{r}, s.runs...)
	s.preloaded = max(s.preloaded, n)
	if s.alloc < s.cfg.RegionBase+stride*n {
		s.alloc = s.cfg.RegionBase + stride*n
	}
}

// Version reports a key's current write count (0 for preloaded-only keys).
func (s *Store) Version(key int64) uint64 {
	if key < 0 || key >= int64(len(s.versions)) {
		return 0
	}
	return uint64(s.versions[key])
}

// ApplyReplicated records that a replicated write at the given version has
// been applied locally (replication apply is asynchronous in
// eventually-consistent stores; only newer versions win). The simulation
// does not carry payload bytes, so only the version metadata moves — reads
// of the key still exercise the normal storage path. Versions are kept as
// uint32 write counts, so a version above MaxUint32 panics.
func (s *Store) ApplyReplicated(key int64, version uint64) {
	if version > math.MaxUint32 {
		panic(fmt.Sprintf("kv: replicated version %d of key %d exceeds the uint32 write count", version, key))
	}
	if version > s.Version(key) {
		s.reserve(key)
		s.versions[key] = uint32(version)
	}
}

// maxKeys bounds the dense per-key state: writing a key at or above it
// panics rather than growing the arrays toward an out-of-memory crash.
const maxKeys = 1 << 31

// minKeys is the smallest dense allocation, for stores written before (or
// without) a preload.
const minKeys = 64

// reserve makes the dense per-key arrays cover key, allocating them on the
// first write and doubling them for keys past their end.
func (s *Store) reserve(key int64) {
	if key >= 0 && key < int64(len(s.versions)) {
		return
	}
	if key < 0 {
		panic(fmt.Sprintf("kv: write of negative key %d", key))
	}
	if key >= maxKeys {
		panic(fmt.Sprintf("kv: write of key %d exceeds the %d-key bound", key, int64(maxKeys)))
	}
	n := int64(len(s.versions))
	if n == 0 {
		n = max(s.preloaded, minKeys)
	}
	for n <= key {
		n *= 2
	}
	n = min(n, maxKeys)
	versions := make([]uint32, n)
	copy(versions, s.versions)
	mem := make([]uint64, (n+63)/64)
	copy(mem, s.mem)
	s.versions, s.mem = versions, mem
}

// inMemtable reports whether key is buffered in the memtable.
func (s *Store) inMemtable(key int64) bool {
	w := key >> 6
	return key >= 0 && w < int64(len(s.mem)) && s.mem[w]&(1<<(key&63)) != 0
}

// write applies one write of key: it enters the memtable and its version
// is bumped. The caller flushes once the memtable is full.
func (s *Store) write(key int64) {
	s.reserve(key)
	if w, b := key>>6, uint64(1)<<(key&63); s.mem[w]&b == 0 {
		s.mem[w] |= b
		s.memN++
	}
	s.versions[key]++
}

// KeyOffset reports the device offset currently serving a key (tests and
// the cache-warming setup use it).
func (s *Store) KeyOffset(key int64) (int64, bool) {
	for _, r := range s.runs {
		if off, ok := r.offsetOf(key, s.cfg.BlockSize); ok {
			return off, true
		}
	}
	return 0, false
}

// bgWrite completes a fire-and-forget background write (WAL, flush,
// compaction): it recycles the request and itself. The callback field is
// bound once so background IO allocates nothing in steady state.
type bgWrite struct {
	s      *Store
	req    *blockio.Request
	doneFn func(error) // pre-bound (*bgWrite).done
}

func (w *bgWrite) Bind() { w.doneFn = w.done }

func (w *bgWrite) done(error) {
	s, req := w.s, w.req
	w.req = nil
	s.bgs.Release(w)
	s.noteBgDone(req)
	req.Release()
}

// noteBgDone retires one background IO from the backpressure accounting and
// folds its observed service rate into the drain-time EWMA. Called before
// the request is released, while its timestamps are still valid.
func (s *Store) noteBgDone(req *blockio.Request) {
	s.bgBytes -= int64(req.Size)
	lat := req.CompleteTime.Sub(req.SubmitTime)
	if lat <= 0 || req.Size <= 0 {
		return
	}
	sample := float64(lat) / float64(req.Size)
	if s.ewmaNsPerByte == 0 {
		s.ewmaNsPerByte = sample
		return
	}
	s.ewmaNsPerByte = 0.8*s.ewmaNsPerByte + 0.2*sample
}

// predictPutStall estimates the flush/compaction backpressure an SLO put
// faces: zero while the background backlog is under the high-water mark,
// else the predicted time to drain it at the observed service rate.
func (s *Store) predictPutStall() time.Duration {
	if s.cfg.StallBytes <= 0 || s.bgBytes <= s.cfg.StallBytes || s.ewmaNsPerByte == 0 {
		return 0
	}
	return time.Duration(float64(s.bgBytes) * s.ewmaNsPerByte)
}

// submitBackground issues one pooled fire-and-forget write/read.
func (s *Store) submitBackground(op blockio.Op, off int64, size int, class blockio.Class, prio int) {
	req := s.reqs.Get()
	req.ID, req.Op, req.Offset, req.Size = s.ids.Next(), op, off, size
	req.Proc, req.Class, req.Priority = s.cfg.Proc, class, prio
	w := sim.Acquire(&s.bgs)
	w.s, w.req = s, req
	s.bgBytes += int64(size)
	s.target.SubmitSLO(req, w.doneFn)
}

// memOp delivers a memory-latency verdict (memtable hit, miss, mmap
// rejection) through the engine without a per-call closure.
type memOp struct {
	s      *Store
	err    error
	onDone func(error)
	fireFn func() // pre-bound (*memOp).fire
}

func (op *memOp) Bind() { op.fireFn = op.fire }

func (op *memOp) fire() {
	s, onDone, err := op.s, op.onDone, op.err
	op.onDone = nil
	op.err = nil
	s.mems.Release(op)
	onDone(err)
}

func (s *Store) afterMem(err error, onDone func(error)) {
	op := sim.Acquire(&s.mems)
	op.s, op.err, op.onDone = s, err, onDone
	s.eng.After(s.cfg.MemLatency, op.fireFn)
}

func (s *Store) allocExtent(size int64) int64 {
	if s.alloc+size > s.cfg.RegionBase+s.cfg.RegionSize {
		// Wrap: immutable runs are replaced wholesale by compaction, so
		// reusing the front of the region models space reclamation.
		s.alloc = s.cfg.RegionBase
	}
	base := s.alloc
	s.alloc += size
	return base
}

// Get reads a key with an optional deadline SLO. onDone receives nil,
// blockio.ErrBusy (possibly wrapped) on MittOS rejection, or ErrNotFound.
// The returned request (nil for memtable hits and misses) lets callers
// revoke the IO while it is still queued — the hook tied requests need.
func (s *Store) Get(key int64, deadline time.Duration, onDone func(error)) *blockio.Request {
	s.gets++
	if s.inMemtable(key) {
		s.afterMem(nil, onDone)
		return nil
	}
	for _, r := range s.runs {
		off, ok := r.offsetOf(key, s.cfg.BlockSize)
		if !ok {
			continue
		}
		if s.Mmap() {
			// The §5 MongoDB path: addrcheck(&myDB[i], size, deadline)
			// before dereferencing the mapped pointer.
			if err := s.mcache.AddrCheck(off, s.cfg.BlockSize, deadline); err != nil {
				s.afterMem(err, onDone)
				return nil
			}
			// Resident (or a tolerable fault): touch the mapping. The
			// fault path carries no deadline — the check already decided.
			req := s.reqs.Get()
			req.ID, req.Op, req.Offset, req.Size = s.ids.Next(), blockio.Read, off, s.cfg.BlockSize
			req.Proc, req.Class, req.Priority = s.cfg.Proc, s.cfg.Class, s.cfg.Priority
			// Via s.target (== the MittCache, possibly metrics-traced) so
			// the touch crosses the node's span boundary exactly once.
			s.target.SubmitSLO(req, onDone)
			return req
		}
		// Pooled: whoever owns onDone also owns req.Release() at the
		// terminal (cluster.Node's serve context does; bare test callers
		// may simply drop it, which falls back to allocation).
		req := s.reqs.Get()
		req.ID, req.Op, req.Offset, req.Size = s.ids.Next(), blockio.Read, off, s.cfg.BlockSize
		req.Proc, req.Class, req.Priority = s.cfg.Proc, s.cfg.Class, s.cfg.Priority
		req.Deadline = deadline
		s.target.SubmitSLO(req, onDone)
		return req
	}
	s.afterMem(ErrNotFound, onDone)
	return nil
}

// Put inserts/overwrites a key. User-facing latency is the memtable insert:
// "writes are first buffered to memory and flushed in the background, thus
// user-facing write latencies are not directly affected by drive-level
// contention" (§7.8.6). The WAL append proceeds asynchronously (group
// commit) and the memtable flush when it fills.
func (s *Store) Put(key int64, onDone func(error)) {
	s.puts++
	s.write(key)
	s.submitBackground(blockio.Write, s.walOffset(), s.cfg.BlockSize, s.cfg.Class, s.cfg.Priority)
	if s.memN >= s.cfg.MemtableCap {
		s.flush()
	}
	s.afterMem(nil, onDone)
}

// putWaiter is one SLO put queued for the next group-commit WAL append.
type putWaiter struct {
	key      int64
	deadline time.Duration
	enq      sim.Time
	onDone   func(error)
	// retried marks a put already re-queued once after its group was
	// rejected on behalf of a tighter member deadline.
	retried bool
}

// walGroup is one in-flight group-commit WAL IO and the puts riding it; the
// completion callback is bound once so the steady path allocates nothing.
type walGroup struct {
	s       *Store
	req     *blockio.Request
	members []putWaiter
	doneFn  func(error) // pre-bound (*walGroup).done
}

func (g *walGroup) Bind() { g.doneFn = g.done }

// PutSLO is the deadline-carrying put (§3's SLO-aware interface applied to
// writes). A zero deadline is exactly Put: vanilla fire-and-forget WAL plus
// memtable ack. With a deadline the put becomes a durable group-commit
// write (PutDurable) whose WAL admission can fast-reject it.
func (s *Store) PutSLO(key int64, deadline time.Duration, onDone func(error)) {
	if deadline <= 0 {
		s.Put(key, onDone)
		return
	}
	s.PutDurable(key, deadline, onDone)
}

// PutDurable is the write-path SLO subsystem's entry point: the put is
// acked only after its WAL append is durable. Concurrent puts batch into
// one group-commit WAL IO admitted through the node's Mitt* target; the
// group carries the tightest member deadline, EBUSY from the WAL admission
// surfaces as a fast reject BEFORE the memtable mutates, and flush/
// compaction backpressure is exposed as predicted wait. A zero deadline
// means durable-but-no-SLO: the put rides the group commit but is never
// rejected (quorum replication's vanilla baseline). onDone receives nil on
// ack, a busy error (possibly *core.BusyError with the predicted wait) on
// rejection, or blockio.ErrIO when the WAL write itself failed.
func (s *Store) PutDurable(key int64, deadline time.Duration, onDone func(error)) {
	s.puts++
	if deadline > 0 {
		if stall := s.predictPutStall(); stall > deadline {
			// Engine-level backpressure the OS cannot see: the background
			// backlog would outlast the deadline, so reject in memory — no
			// IO is submitted and the memtable stays untouched.
			s.afterMem(&core.BusyError{PredictedWait: stall}, onDone)
			return
		}
	}
	s.walPend = append(s.walPend, putWaiter{
		key: key, deadline: deadline, enq: s.eng.Now(), onDone: onDone,
	})
	if !s.walBusy {
		s.flushWalGroup()
	}
}

// flushWalGroup batches every pending put into one WAL append (clamped to
// the contiguous tail of the log ring) and submits it with the group's
// tightest deadline through the SLO-aware target.
func (s *Store) flushWalGroup() {
	if len(s.walPend) == 0 {
		return
	}
	k := len(s.walPend)
	if rem := walBlocks - int(s.walPos%walBlocks); k > rem {
		k = rem
	}
	g := sim.Acquire(&s.groups)
	g.s = s
	g.members = append(g.members[:0], s.walPend[:k]...)
	n := copy(s.walPend, s.walPend[k:])
	for i := n; i < len(s.walPend); i++ {
		s.walPend[i] = putWaiter{}
	}
	s.walPend = s.walPend[:n]

	// The group's deadline is the tightest member SLO; members without one
	// (deadline 0, durable-but-vanilla) never tighten it, and a group of
	// only those carries no deadline at all — plain admission passthrough.
	minDL := time.Duration(0)
	oldest := g.members[0].enq
	now := s.eng.Now()
	for i := range g.members {
		m := &g.members[i]
		if m.deadline > 0 && (minDL == 0 || m.deadline < minDL) {
			minDL = m.deadline
		}
		if m.enq < oldest {
			oldest = m.enq
		}
		s.rec.Observe(metrics.RNode, metrics.HPutWalQueue, blockio.Write, now.Sub(m.enq))
	}

	req := s.reqs.Get()
	req.ID, req.Op, req.Offset, req.Size = s.ids.Next(), blockio.Write, s.walOffsetN(k), k*s.cfg.BlockSize
	req.Proc, req.Class, req.Priority = s.cfg.Proc, s.cfg.Class, s.cfg.Priority
	req.Deadline = minDL
	req.QueuedTime = oldest
	g.req = req
	s.walBusy = true
	s.walGroups++
	s.bgBytes += int64(req.Size)
	s.target.SubmitSLO(req, g.doneFn)
}

// done is the group's single completion terminal: on success every member's
// key is applied to the memtable and acked at memory latency; on EBUSY no
// memtable state moves — members whose own deadline still fits the predicted
// wait are re-queued once into a fresh group, the rest hear the rejection;
// on EIO every member hears the write failure. Either way the next pending
// group is flushed.
func (g *walGroup) done(err error) {
	s, req := g.s, g.req
	g.req = nil
	busy := core.IsBusy(err)
	s.bgBytes -= int64(req.Size)
	if !busy {
		lat := req.CompleteTime.Sub(req.SubmitTime)
		if lat > 0 && req.Size > 0 {
			sample := float64(lat) / float64(req.Size)
			if s.ewmaNsPerByte == 0 {
				s.ewmaNsPerByte = sample
			} else {
				s.ewmaNsPerByte = 0.8*s.ewmaNsPerByte + 0.2*sample
			}
		}
		if err == nil {
			s.rec.Observe(metrics.RNode, metrics.HPutWalService, blockio.Write, req.CompleteTime.Sub(req.SubmitTime))
		}
	}
	req.Release()

	var predWait time.Duration = -1
	if busy {
		var be *core.BusyError
		if errors.As(err, &be) {
			predWait = be.PredictedWait
		}
	}
	now := s.eng.Now()
	for i := range g.members {
		m := &g.members[i]
		switch {
		case err == nil:
			// WAL durable: mutate the memtable and ack at memory latency.
			s.write(m.key)
			if s.memN >= s.cfg.MemtableCap {
				s.flush()
			}
			s.rec.Observe(metrics.RNode, metrics.HPutMemAck, blockio.Write, now.Sub(m.enq))
			s.afterMem(nil, m.onDone)
		case busy && (m.deadline <= 0 ||
			(!m.retried && predWait >= 0 && m.deadline >= predWait)):
			// The group was rejected on behalf of a tighter member deadline.
			// Members with no SLO of their own (deadline 0) always ride the
			// next group — they can never hear EBUSY — and members whose own
			// deadline still fits the predicted wait ride it once instead of
			// a false rejection. Each EBUSY round thus sheds the too-tight
			// members, so within two rounds only deadline-0 members remain
			// and the group submits as plain passthrough.
			s.putRetries++
			s.walPend = append(s.walPend, putWaiter{
				key: m.key, deadline: m.deadline, enq: m.enq,
				onDone: m.onDone, retried: true,
			})
		default:
			// Fast reject (or WAL write failure): the memtable never
			// mutated, the caller hears the verdict now — the EBUSY
			// syscall round trip was already charged by the admission
			// layer.
			m.onDone(err)
		}
		m.onDone = nil
	}
	g.members = g.members[:0]
	s.groups.Release(g)
	s.walBusy = false
	if len(s.walPend) > 0 {
		s.flushWalGroup()
	}
}

// walBlocks sizes the log ring at the region tail.
const walBlocks = 1024

// walOffset cycles a small log extent at the region tail.
func (s *Store) walOffset() int64 { return s.walOffsetN(1) }

// walOffsetN reserves n consecutive log blocks (the caller clamps n to the
// ring remainder so a group never wraps) and returns the first's offset.
func (s *Store) walOffsetN(n int) int64 {
	off := s.cfg.RegionBase + s.cfg.RegionSize - int64(walBlocks*s.cfg.BlockSize) +
		(s.walPos%walBlocks)*int64(s.cfg.BlockSize)
	s.walPos += int64(n)
	return off
}

// flush turns the memtable into a new run, writing its blocks sequentially
// in the background at the engine's priority.
func (s *Store) flush() {
	s.flushes++
	n := int64(s.memN)
	// Slot assignment decides each key's device offset, which decides the
	// seek distance of every future read of that key. Walking the bitset
	// word by word yields the keys in ascending order (real LSM flushes
	// write sorted tables too) and empties the memtable as it goes.
	keys := make([]int64, 0, n)
	for w, word := range s.mem {
		if word == 0 {
			continue
		}
		for ; word != 0; word &= word - 1 {
			keys = append(keys, int64(w)<<6|int64(bits.TrailingZeros64(word)))
		}
		s.mem[w] = 0
	}
	s.memN = 0
	r := newRun(s.allocExtent(n*int64(s.cfg.BlockSize)), int64(s.cfg.BlockSize), keys)
	s.runs = append([]*run{r}, s.runs...)
	// Background sequential writes, fire-and-forget: chunked 256KB IOs.
	const chunk = 256 << 10
	bytes := n * int64(s.cfg.BlockSize)
	for off := int64(0); off < bytes; off += chunk {
		size := chunk
		if off+int64(size) > bytes {
			size = int(bytes - off)
		}
		s.submitBackground(blockio.Write, r.base+off, size, blockio.ClassIdle, 7)
	}
	if len(s.runs) > s.cfg.MaxRuns {
		s.compact()
	}
}

// mergeKeys calls emit once for every key of the union of the runs, in
// ascending order: a k-way merge over the sorted runs (k <= MaxRuns+1, so
// a linear scan for the smallest head beats a heap).
func (s *Store) mergeKeys(emit func(int64)) {
	pos := s.mergePos[:0]
	for range s.runs {
		pos = append(pos, 0)
	}
	for {
		var next int64
		found := false
		for i, r := range s.runs {
			if pos[i] < r.n {
				if k := r.key(pos[i]); !found || k < next {
					next, found = k, true
				}
			}
		}
		if !found {
			break
		}
		emit(next)
		for i, r := range s.runs {
			if pos[i] < r.n && r.key(pos[i]) == next {
				pos[i]++
			}
		}
	}
	s.mergePos = pos
}

// compact merges all runs into one, reading and rewriting sequentially at
// idle priority — the background churn that makes LSM stores noisy
// neighbors to themselves.
func (s *Store) compact() {
	s.compactions++
	// As in flush: the merged run's slot layout feeds future seek
	// distances, so a key's slot is its rank in the sorted union.
	// A union that is a contiguous range needs no key slice, so count it
	// first and materialize the keys only when they are sparse.
	var total, lo, hi int64
	s.mergeKeys(func(k int64) {
		if total == 0 {
			lo = k
		}
		hi = k
		total++
	})
	base, stride := s.allocExtent(total*int64(s.cfg.BlockSize)), int64(s.cfg.BlockSize)
	var r *run
	if hi-lo+1 == total {
		r = &run{base: base, stride: stride, lo: lo, hi: hi, n: total}
	} else {
		keys := make([]int64, 0, total)
		s.mergeKeys(func(k int64) { keys = append(keys, k) })
		r = newRun(base, stride, keys)
	}
	old := s.runs
	s.runs = []*run{r}
	// Background IO: one large sequential read per old run + sequential
	// writes of the merged run.
	const chunk = 1 << 20
	for _, o := range old {
		bytes := o.n * int64(s.cfg.BlockSize)
		for off := int64(0); off < bytes; off += chunk {
			size := chunk
			if off+int64(size) > bytes {
				size = int(bytes - off)
			}
			s.submitBackground(blockio.Read, o.base+off, size, blockio.ClassIdle, 7)
		}
	}
	bytes := total * int64(s.cfg.BlockSize)
	for off := int64(0); off < bytes; off += chunk {
		size := chunk
		if off+int64(size) > bytes {
			size = int(bytes - off)
		}
		s.submitBackground(blockio.Write, r.base+off, size, blockio.ClassIdle, 7)
	}
}
