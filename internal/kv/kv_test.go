package kv

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/oscache"
	"mittos/internal/sim"
)

type kvRig struct {
	eng   *sim.Engine
	disk  *disk.Disk
	store *Store
	mitt  *core.MittNoop
}

func newKVRig(t *testing.T) *kvRig {
	t.Helper()
	eng := sim.NewEngine()
	dcfg := disk.DefaultConfig()
	d := disk.New(eng, dcfg, sim.NewRNG(51, t.Name()))
	nop := iosched.NewNoop(eng, d)
	prof := disk.ProfileTwin(dcfg, 42, disk.ProfilerOptions{Buckets: 16, Tries: 4, ProbeSize: 4096})
	mitt := core.NewMittNoop(eng, nop, prof, core.DefaultOptions())
	var ids blockio.IDGen
	store := New(eng, DefaultConfig(0, 100<<30), mitt, &ids)
	return &kvRig{eng: eng, disk: d, store: store, mitt: mitt}
}

func TestGetPreloadedKey(t *testing.T) {
	r := newKVRig(t)
	r.store.Preload(10000)
	var err error = blockio.ErrBusy
	r.store.Get(1234, 50*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if err != nil {
		t.Fatalf("Get = %v", err)
	}
	if r.disk.Served() != 1 {
		t.Fatalf("disk served %d IOs, want exactly 1 per get", r.disk.Served())
	}
}

func TestGetMissingKey(t *testing.T) {
	r := newKVRig(t)
	r.store.Preload(100)
	var err error
	r.store.Get(9999, 0, func(e error) { err = e })
	r.eng.Run()
	if err != ErrNotFound {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
}

func TestPutThenGetServedFromMemtable(t *testing.T) {
	r := newKVRig(t)
	r.store.Preload(100)
	done := false
	r.store.Put(5, func(e error) {
		if e != nil {
			t.Fatalf("Put = %v", e)
		}
		done = true
	})
	r.eng.Run()
	if !done {
		t.Fatal("Put never completed")
	}
	served := r.disk.Served()
	var err error = blockio.ErrBusy
	r.store.Get(5, 0, func(e error) { err = e })
	r.eng.Run()
	if err != nil {
		t.Fatalf("Get = %v", err)
	}
	if r.disk.Served() != served {
		t.Fatal("memtable hit went to disk")
	}
}

func TestPutIsFastUnderReadNoise(t *testing.T) {
	// §7.8.6: writes are WAL appends absorbed by NVRAM; read contention
	// must not inflate them.
	r := newKVRig(t)
	r.store.Preload(10000)
	rng := sim.NewRNG(3, "noise")
	// Saturate the disk with reads.
	for i := 0; i < 20; i++ {
		r.store.Get(rng.Int63n(10000), 0, func(error) {})
	}
	start := r.eng.Now()
	var lat time.Duration
	r.store.Put(3, func(error) { lat = r.eng.Now().Sub(start) })
	r.eng.Run()
	if lat > time.Millisecond {
		t.Fatalf("Put latency %v under read noise; want NVRAM-fast", lat)
	}
}

func TestGetWithDeadlineGetsEBUSYUnderContention(t *testing.T) {
	r := newKVRig(t)
	r.store.Preload(1 << 20) // 4GB of blocks: room for real seeks
	rng := sim.NewRNG(4, "noise")
	// Noise concentrated at the low end of the key space; the probe lands
	// at the far end, so SSTF cannot jump it ahead of the pack.
	for i := 0; i < 15; i++ {
		r.store.Get(rng.Int63n(1000), 0, func(error) {})
	}
	var err error
	r.store.Get(1<<20-1, 5*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if !core.IsBusy(err) {
		t.Fatalf("contended deadline Get = %v, want EBUSY", err)
	}
}

func TestFlushCreatesRunsAndGetStillWorks(t *testing.T) {
	r := newKVRig(t)
	cfg := DefaultConfig(0, 100<<30)
	cfg.MemtableCap = 64
	var ids blockio.IDGen
	r.store = New(r.eng, cfg, r.mitt, &ids)
	r.store.Preload(1000)
	for k := int64(2000); k < 2200; k++ {
		r.store.Put(k, func(error) {})
		r.eng.Run()
	}
	_, _, flushes, _ := r.store.Stats()
	if flushes == 0 {
		t.Fatal("no flush after 200 puts with cap 64")
	}
	if r.store.Runs() < 2 {
		t.Fatalf("runs = %d", r.store.Runs())
	}
	// A flushed (non-memtable) key must still be readable via a run.
	var err error = blockio.ErrBusy
	r.store.Get(2000, 0, func(e error) { err = e })
	r.eng.Run()
	if err != nil {
		t.Fatalf("Get(flushed) = %v", err)
	}
}

func TestCompactionBoundsRuns(t *testing.T) {
	r := newKVRig(t)
	cfg := DefaultConfig(0, 100<<30)
	cfg.MemtableCap = 32
	cfg.MaxRuns = 3
	var ids blockio.IDGen
	r.store = New(r.eng, cfg, r.mitt, &ids)
	for k := int64(0); k < 1000; k++ {
		r.store.Put(k%200, func(error) {}) // overwrites force merge work
		r.eng.Run()
	}
	_, _, _, compactions := r.store.Stats()
	if compactions == 0 {
		t.Fatal("no compaction happened")
	}
	if r.store.Runs() > cfg.MaxRuns {
		t.Fatalf("runs = %d > MaxRuns %d after compaction", r.store.Runs(), cfg.MaxRuns)
	}
	// All live keys must remain readable.
	for _, k := range []int64{0, 100, 199} {
		var err error = blockio.ErrBusy
		r.store.Get(k, 0, func(e error) { err = e })
		r.eng.Run()
		if err != nil {
			t.Fatalf("Get(%d) after compaction = %v", k, err)
		}
	}
}

func TestKeyOffsetStable(t *testing.T) {
	r := newKVRig(t)
	r.store.Preload(1000)
	off1, ok1 := r.store.KeyOffset(42)
	off2, ok2 := r.store.KeyOffset(42)
	if !ok1 || !ok2 || off1 != off2 {
		t.Fatal("KeyOffset unstable")
	}
	if _, ok := r.store.KeyOffset(99999); ok {
		t.Fatal("KeyOffset found a missing key")
	}
}

// TestKeyStateBounds pins the dense per-key state's edges: keys outside
// the arrays read as never written, and writes it cannot hold panic with a
// message instead of corrupting state or exhausting memory.
func TestKeyStateBounds(t *testing.T) {
	r := newKVRig(t)
	r.store.Preload(100)
	r.store.Put(5, func(error) {})
	r.eng.Run()
	for _, k := range []int64{-1, -64, 100, 1 << 20, maxKeys, math.MaxInt64} {
		if v := r.store.Version(k); v != 0 {
			t.Errorf("Version(%d) = %d, want 0", k, v)
		}
		if _, ok := r.store.KeyOffset(k); ok {
			t.Errorf("KeyOffset(%d) found a key", k)
		}
		var err error
		if req := r.store.Get(k, 0, func(e error) { err = e }); req != nil {
			t.Errorf("Get(%d) issued a read", k)
		}
		r.eng.Run()
		if err != ErrNotFound {
			t.Errorf("Get(%d) = %v, want ErrNotFound", k, err)
		}
	}
	r.store.ApplyReplicated(7, math.MaxUint32)
	if v := r.store.Version(7); v != math.MaxUint32 {
		t.Fatalf("Version(7) = %d after applying MaxUint32", v)
	}

	panics := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one mentioning %q", name, msg, want)
			}
		}()
		f()
	}
	panics("Put(-1)", "negative key", func() { r.store.Put(-1, func(error) {}) })
	panics("ApplyReplicated(-3, 1)", "negative key", func() { r.store.ApplyReplicated(-3, 1) })
	panics("Put(maxKeys)", "bound", func() { r.store.Put(maxKeys, func(error) {}) })
	panics("Put(MaxInt64)", "bound", func() { r.store.Put(math.MaxInt64, func(error) {}) })
	panics("ApplyReplicated(7, MaxUint32+1)", "uint32", func() { r.store.ApplyReplicated(7, math.MaxUint32+1) })
	if v := r.store.Version(7); v != math.MaxUint32 {
		t.Fatalf("Version(7) = %d after the refused apply", v)
	}
}

func TestPreloadTooBigPanics(t *testing.T) {
	r := newKVRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.store.Preload(1 << 40)
}

func TestMmapPathAddrCheckEBUSY(t *testing.T) {
	// §5's MongoDB integration: gets through the mmap path call
	// addrcheck() first; a swapped-out block with an in-memory deadline
	// bounces with EBUSY and keeps swapping in behind the error.
	eng := sim.NewEngine()
	dcfg := disk.DefaultConfig()
	d := disk.New(eng, dcfg, sim.NewRNG(91, "mmap-disk"))
	nop := iosched.NewNoop(eng, d)
	prof := disk.ProfileTwin(dcfg, 42, disk.ProfilerOptions{Buckets: 16, Tries: 4, ProbeSize: 4096})
	lower := core.NewMittNoop(eng, nop, prof, core.DefaultOptions())
	ccfg := oscache.DefaultConfig()
	ccfg.CapacityPages = 100000
	cache := oscache.New(eng, ccfg, nop)
	mc := core.NewMittCache(eng, cache, lower, dcfg.SeqCost, core.DefaultOptions())

	var ids blockio.IDGen
	store := New(eng, DefaultConfig(0, 100<<30), mc, &ids)
	store.UseMmap(mc)
	store.Preload(1000)
	if !store.Mmap() {
		t.Fatal("mmap mode not active")
	}

	// Warm key 7's block, then evict it (memory contention).
	off, _ := store.KeyOffset(7)
	cache.Warm(off, 4096)
	var err error = blockio.ErrBusy
	store.Get(7, 200*time.Microsecond, func(e error) { err = e })
	eng.Run()
	if err != nil {
		t.Fatalf("resident mmap get: %v", err)
	}
	cache.EvictRange(off, 4096)
	store.Get(7, 200*time.Microsecond, func(e error) { err = e })
	eng.Run()
	if !core.IsBusy(err) {
		t.Fatalf("evicted mmap get: %v, want EBUSY from addrcheck", err)
	}
	// Background swap-in repopulated the page: the retry hits.
	store.Get(7, 200*time.Microsecond, func(e error) { err = e })
	eng.Run()
	if err != nil {
		t.Fatalf("post-swap-in mmap get: %v", err)
	}
}

func TestMmapPathColdFaultTolerated(t *testing.T) {
	// A cold block with a disk-tolerant deadline page-faults through.
	eng := sim.NewEngine()
	dcfg := disk.DefaultConfig()
	d := disk.New(eng, dcfg, sim.NewRNG(92, "mmap-disk"))
	nop := iosched.NewNoop(eng, d)
	prof := disk.ProfileTwin(dcfg, 42, disk.ProfilerOptions{Buckets: 16, Tries: 4, ProbeSize: 4096})
	lower := core.NewMittNoop(eng, nop, prof, core.DefaultOptions())
	ccfg := oscache.DefaultConfig()
	cache := oscache.New(eng, ccfg, nop)
	mc := core.NewMittCache(eng, cache, lower, dcfg.SeqCost, core.DefaultOptions())
	var ids blockio.IDGen
	store := New(eng, DefaultConfig(0, 100<<30), mc, &ids)
	store.UseMmap(mc)
	store.Preload(1000)
	var err error = blockio.ErrBusy
	store.Get(3, 50*time.Millisecond, func(e error) { err = e })
	eng.Run()
	if err != nil {
		t.Fatalf("cold mmap fault: %v", err)
	}
	// And it is now resident.
	off, _ := store.KeyOffset(3)
	if !cache.Resident(off, 4096) {
		t.Fatal("fault did not populate the mapping")
	}
}

// scriptTarget is a deterministic core.Target for put-path unit tests: each
// SLO-carrying submit pops the next scripted verdict; deadline-0 submits
// always execute (the Target contract: no deadline, no admission check).
// Every IO completes after a fixed service time in virtual time.
type scriptTarget struct {
	eng     *sim.Engine
	script  []error // verdicts for deadline-carrying submits, in order
	svc     time.Duration
	submits int // total submits
	sloSubs int // deadline-carrying submits
}

func (f *scriptTarget) SubmitSLO(req *blockio.Request, onDone func(error)) {
	f.submits++
	var err error
	if req.Deadline > 0 {
		if f.sloSubs < len(f.script) {
			err = f.script[f.sloSubs]
		}
		f.sloSubs++
		if err != nil {
			onDone(err)
			return
		}
	}
	req.SubmitTime = f.eng.Now()
	f.eng.After(f.svc, func() {
		req.CompleteTime = f.eng.Now()
		onDone(nil)
	})
}

func newScriptRig(script ...error) (*sim.Engine, *Store, *scriptTarget) {
	eng := sim.NewEngine()
	ft := &scriptTarget{eng: eng, script: script, svc: time.Millisecond}
	var ids blockio.IDGen
	store := New(eng, DefaultConfig(0, 100<<30), ft, &ids)
	return eng, store, ft
}

func TestPutDurableGroupCommitBatches(t *testing.T) {
	eng, store, ft := newScriptRig()
	acks := 0
	store.PutDurable(0, 0, func(e error) {
		if e != nil {
			t.Fatalf("put 0 = %v", e)
		}
		acks++
	})
	// While the first WAL append is in flight, four more puts arrive; they
	// must share one group-commit IO, not get four appends.
	for k := int64(1); k <= 4; k++ {
		store.PutDurable(k, 0, func(e error) {
			if e != nil {
				t.Fatalf("put = %v", e)
			}
			acks++
		})
	}
	eng.Run()
	if acks != 5 {
		t.Fatalf("acked %d puts, want 5", acks)
	}
	if got := store.WalGroups(); got != 2 {
		t.Fatalf("WAL groups = %d, want 2 (leader + one batch)", got)
	}
	if ft.submits != 2 {
		t.Fatalf("target saw %d submits, want 2", ft.submits)
	}
	for k := int64(0); k <= 4; k++ {
		hit := false
		store.Get(k, 0, func(e error) { hit = e == nil })
		eng.Run()
		if !hit {
			t.Fatalf("key %d missing after durable ack", k)
		}
	}
}

func TestPutGroupRejectionSparesFittingMembers(t *testing.T) {
	// One group, three deadlines: tight (1ms < predicted wait), loose
	// (fits), and none. On the group EBUSY only the tight member may hear
	// it; the others ride the next group — the never-false-reject rule.
	// Script entries are consumed by deadline-carrying groups only: the
	// deadline-0 leader group passes through unscripted.
	eng, store, _ := newScriptRig(
		&core.BusyError{PredictedWait: 5 * time.Millisecond}, // {tight, loose, zero}
		nil, // retry group {loose, zero}
	)
	store.PutDurable(100, 0, func(error) {}) // occupies the WAL; batches the rest
	var errTight, errLoose, errZero error = blockio.ErrBusy, blockio.ErrBusy, blockio.ErrBusy
	store.PutDurable(101, time.Millisecond, func(e error) { errTight = e })
	store.PutDurable(102, 10*time.Millisecond, func(e error) { errLoose = e })
	store.PutDurable(103, 0, func(e error) { errZero = e })
	eng.Run()
	if !core.IsBusy(errTight) {
		t.Fatalf("tight put = %v, want EBUSY", errTight)
	}
	var be *core.BusyError
	if !errors.As(errTight, &be) || be.PredictedWait != 5*time.Millisecond {
		t.Fatalf("tight put lost the wait hint: %v", errTight)
	}
	if errLoose != nil {
		t.Fatalf("loose put = %v; deadline fit the predicted wait, rejecting it is a false reject", errLoose)
	}
	if errZero != nil {
		t.Fatalf("no-SLO put = %v; deadline-0 puts must never hear EBUSY", errZero)
	}
	if got := store.PutRetries(); got != 2 {
		t.Fatalf("put retries = %d, want 2 (loose + zero re-enqueued)", got)
	}
	// The rejected put must have left no state behind.
	var errGet error
	store.Get(101, 0, func(e error) { errGet = e })
	eng.Run()
	if errGet != ErrNotFound {
		t.Fatalf("rejected put mutated the store: Get = %v, want ErrNotFound", errGet)
	}
}

func TestPutBackpressureRejectsBeforeSubmit(t *testing.T) {
	// Flush/compaction backlog past the high-water mark surfaces as a
	// predicted-wait rejection in memory: no WAL IO is even submitted.
	eng, store, ft := newScriptRig()
	store.PutDurable(0, 0, func(error) {})
	eng.Run() // seeds the drain-rate EWMA
	// Pile up > StallBytes of background writes without letting any drain.
	for k := int64(1); k <= 300; k++ {
		store.Put(k, func(error) {})
	}
	if store.BackgroundBytes() <= DefaultConfig(0, 100<<30).StallBytes {
		t.Fatalf("backlog %d bytes under the stall mark; test setup broken", store.BackgroundBytes())
	}
	subs := ft.submits
	var errTight error
	store.PutDurable(1000, time.Millisecond, func(e error) { errTight = e })
	var be *core.BusyError
	if !errors.As(errTight, &be) && errTight != nil {
		t.Fatalf("backpressured put = %v", errTight)
	}
	eng.Run()
	if !errors.As(errTight, &be) || be.PredictedWait <= time.Millisecond {
		t.Fatalf("backpressured put = %v, want BusyError with wait > deadline", errTight)
	}
	if ft.submits != subs {
		t.Fatal("rejected put still submitted a WAL IO")
	}
	var errGet error
	store.Get(1000, 0, func(e error) { errGet = e })
	eng.Run()
	if errGet != ErrNotFound {
		t.Fatalf("rejected put mutated the store: Get = %v", errGet)
	}
	// The same backlog must not touch a no-SLO durable put.
	var errZero error = blockio.ErrBusy
	store.PutDurable(1001, 0, func(e error) { errZero = e })
	eng.Run()
	if errZero != nil {
		t.Fatalf("no-SLO put under backpressure = %v, want nil", errZero)
	}
}

// oracleRun is a run indexed the way runs were before they were sorted
// tables: a map from key to block slot, the slot being the key's rank in
// the run's sorted key set.
type oracleRun struct {
	base, stride int64
	index        map[int64]int32
}

func rankIndex(set map[int64]bool) map[int64]int32 {
	keys := make([]int64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	index := make(map[int64]int32, len(keys))
	for slot, k := range keys {
		index[k] = int32(slot)
	}
	return index
}

// indexOracle mirrors a store's run structure with map-built indexes: it
// replays Preload, and after every Put rebuilds whatever flush and
// compaction the store just did from its own copy of the memtable.
type indexOracle struct {
	s        *Store
	memtable map[int64]bool
	runs     []oracleRun // newest first
	flushes  uint64
	compacts uint64
}

func (o *indexOracle) preload(n int64) {
	o.s.Preload(n)
	set := make(map[int64]bool, n)
	for k := int64(0); k < n; k++ {
		set[k] = true
	}
	o.runs = append([]oracleRun{{index: rankIndex(set)}}, o.runs...)
}

func (o *indexOracle) put(key int64) {
	o.s.Put(key, func(error) {})
	o.memtable[key] = true
	_, _, flushes, compactions := o.s.Stats()
	if flushes > o.flushes {
		o.flushes = flushes
		o.runs = append([]oracleRun{{index: rankIndex(o.memtable)}}, o.runs...)
		o.memtable = map[int64]bool{}
	}
	if compactions > o.compacts {
		o.compacts = compactions
		union := map[int64]bool{}
		for _, r := range o.runs {
			for k := range r.index {
				union[k] = true
			}
		}
		o.runs = []oracleRun{{index: rankIndex(union)}}
	}
}

// check compares KeyOffset for every key in [-1, hi+extra] with the
// oracle's answer. Run placement (base, stride) is not what is under test,
// so the oracle takes it from the store's runs.
func (o *indexOracle) check(t *testing.T, hi, extra int64) {
	t.Helper()
	if len(o.runs) != len(o.s.runs) {
		t.Fatalf("store has %d runs, oracle %d", len(o.s.runs), len(o.runs))
	}
	bs := int64(o.s.cfg.BlockSize)
	for i := range o.runs {
		o.runs[i].base, o.runs[i].stride = o.s.runs[i].base, max(o.s.runs[i].stride, bs)
	}
	for k := int64(-1); k <= hi+extra; k++ {
		var want int64
		found := false
		for _, r := range o.runs {
			if slot, ok := r.index[k]; ok {
				want, found = r.base+int64(slot)*r.stride, true
				break
			}
		}
		got, ok := o.s.KeyOffset(k)
		if ok != found || got != want {
			t.Fatalf("KeyOffset(%d) = (%d, %v); map oracle (%d, %v)", k, got, ok, want, found)
		}
	}
}

// TestRunIndexMatchesMapOracle pins every key's device offset — and so
// every seek distance — to the map-built index: slot = rank in the run's
// sorted key set, for dense, sparse and compacted runs, probing keys below,
// inside, between and above the runs.
func TestRunIndexMatchesMapOracle(t *testing.T) {
	newOracle := func(t *testing.T, memCap, maxRuns int) *indexOracle {
		r := newKVRig(t)
		cfg := DefaultConfig(0, 100<<30)
		cfg.MemtableCap, cfg.MaxRuns = memCap, maxRuns
		var ids blockio.IDGen
		r.store = New(r.eng, cfg, r.mitt, &ids)
		return &indexOracle{s: r.store, memtable: map[int64]bool{}}
	}
	dense := func(t *testing.T, s *Store, want bool) {
		t.Helper()
		if got := s.runs[0].keys == nil; got != want {
			t.Fatalf("newest run dense = %v, want %v (keys %d..%d, n %d)",
				got, want, s.runs[0].lo, s.runs[0].hi, s.runs[0].n)
		}
	}

	t.Run("DensePreload", func(t *testing.T) {
		o := newOracle(t, 64, 6)
		o.preload(1000)
		dense(t, o.s, true)
		o.check(t, 1000, 50)
	})
	t.Run("SparseFlushes", func(t *testing.T) {
		o := newOracle(t, 16, 100)
		for i := int64(0); i < 200; i++ {
			o.put(7 + 3*((i*37)%150)) // overlapping runs of keys ≡ 1 mod 3
			o.check(t, 7+3*150, 10)
		}
		if o.s.Runs() < 10 {
			t.Fatalf("runs = %d, want at least 10 sparse runs", o.s.Runs())
		}
		dense(t, o.s, false)
	})
	t.Run("DenseWithSparseCompaction", func(t *testing.T) {
		o := newOracle(t, 16, 3)
		o.preload(300)
		for i := int64(0); i < 200; i++ {
			k := (i * 53) % 300
			if i%3 == 0 {
				k = 320 + 5*i // above the dense run, with gaps
			}
			o.put(k)
			o.check(t, 320+5*200, 10)
		}
		if o.compacts == 0 {
			t.Fatal("no compaction happened")
		}
		if len(o.s.runs) == 1 {
			dense(t, o.s, false)
		}
	})
	t.Run("ContiguousUnionComesBackDense", func(t *testing.T) {
		o := newOracle(t, 16, 3)
		o.preload(200)
		// Two flushes extend the range, a third overwrites keys inside it
		// and pushes the run count past MaxRuns.
		for k := int64(200); k < 232; k++ {
			o.put(k)
		}
		for i := int64(0); i < 16; i++ {
			o.put(i * 7)
		}
		if o.compacts == 0 || len(o.s.runs) != 1 {
			t.Fatalf("compactions = %d, runs = %d; want one compacted run", o.compacts, len(o.s.runs))
		}
		dense(t, o.s, true)
		if r := o.s.runs[0]; r.lo != 0 || r.n != 232 {
			t.Fatalf("compacted run covers [%d, %d] with %d keys; want [0, 231]", r.lo, r.hi, r.n)
		}
		o.check(t, 232, 10)
	})
	t.Run("SparseRunsUnionDenseAboveZero", func(t *testing.T) {
		o := newOracle(t, 16, 3)
		for i := int64(0); i < 64; i++ {
			o.put(50 + (i*27)%64) // every key of [50, 114), in a scrambled order
			o.check(t, 114, 10)
		}
		if o.compacts == 0 || len(o.s.runs) != 1 {
			t.Fatalf("compactions = %d, runs = %d; want one compacted run", o.compacts, len(o.s.runs))
		}
		dense(t, o.s, true)
	})
}

// TestPreloadIsConstantTime checks that preloading builds no per-key index:
// a 100000-key preload allocates a constant handful of objects, the same
// as a 100-key one.
func TestPreloadIsConstantTime(t *testing.T) {
	r := newKVRig(t)
	preload := func(n int64) float64 {
		return testing.AllocsPerRun(20, func() {
			r.store.runs = r.store.runs[:0]
			r.store.Preload(n)
		})
	}
	small, large := preload(100), preload(100000)
	if large > 3 || large != small {
		t.Fatalf("Preload(100000) allocates %.1f objects, Preload(100) %.1f; want the same constant ≤ 3", large, small)
	}
}
