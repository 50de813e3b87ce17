package disk

import (
	"testing"
	"testing/quick"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
	"mittos/internal/stats"
)

func newTestDisk(t *testing.T) (*sim.Engine, *Disk) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, DefaultConfig(), sim.NewRNG(1, t.Name()))
}

func read(off int64, size int) *blockio.Request {
	return &blockio.Request{Op: blockio.Read, Offset: off, Size: size}
}

func TestRandomReadLatencyBand(t *testing.T) {
	// §6: random 4KB reads without noise should land in ~6-10ms.
	eng, d := newTestDisk(t)
	rng := sim.NewRNG(2, "offsets")
	s := stats.NewSample(0)
	var issue func(i int)
	issue = func(i int) {
		if i == 0 {
			return
		}
		r := read(rng.Int63n(d.Config().CapacityBytes-4096), 4096)
		r.OnComplete = func(r *blockio.Request) {
			s.Add(r.Latency())
			issue(i - 1)
		}
		r.SubmitTime = eng.Now()
		d.Submit(r)
	}
	issue(500)
	eng.Run()
	mean := s.Mean()
	if mean < 4*time.Millisecond || mean > 12*time.Millisecond {
		t.Fatalf("mean random-read latency %v outside 4–12ms", mean)
	}
	if s.N() != 500 {
		t.Fatalf("completed %d of 500", s.N())
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	eng, d := newTestDisk(t)
	var seqLat, randLat time.Duration
	r1 := read(0, 4096)
	r1.OnComplete = func(*blockio.Request) {}
	d.Submit(r1)
	eng.Run()
	r2 := read(8192, 4096) // sequential w.r.t. head
	r2.SubmitTime = eng.Now()
	r2.OnComplete = func(r *blockio.Request) { seqLat = r.Latency() }
	d.Submit(r2)
	eng.Run()
	r3 := read(500<<30, 4096) // half-stroke seek
	r3.SubmitTime = eng.Now()
	r3.OnComplete = func(r *blockio.Request) { randLat = r.Latency() }
	d.Submit(r3)
	eng.Run()
	if seqLat*4 > randLat {
		t.Fatalf("sequential %v not ≪ random %v", seqLat, randLat)
	}
}

func TestSSTFOrdering(t *testing.T) {
	// While one IO is in service, queue three more; the disk must serve
	// the one closest to the head next, not FIFO.
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ServiceNoiseStd = 0 // determinism for ordering assertions
	d := New(eng, cfg, sim.NewRNG(1, "sstf"))
	var order []int64
	mk := func(off int64) *blockio.Request {
		r := read(off, 4096)
		r.OnComplete = func(r *blockio.Request) { order = append(order, r.Offset) }
		return r
	}
	d.Submit(mk(100 << 30)) // starts service immediately; head ends near 100GB
	d.Submit(mk(900 << 30)) // farthest
	d.Submit(mk(120 << 30)) // closest to head after first completes
	d.Submit(mk(500 << 30))
	eng.Run()
	want := []int64{100 << 30, 120 << 30, 500 << 30, 900 << 30}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v (SSTF)", order, want)
		}
	}
}

func TestWriteBufferAbsorbsWrites(t *testing.T) {
	// §7.8.6: buffered writes ack in µs even when the spindle is busy.
	eng, d := newTestDisk(t)
	// Saturate the spindle with reads.
	for i := 0; i < 10; i++ {
		r := read(int64(i)*(50<<30), 4096)
		r.OnComplete = func(*blockio.Request) {}
		d.Submit(r)
	}
	var wLat time.Duration
	w := &blockio.Request{Op: blockio.Write, Offset: 4096, Size: 4096}
	w.SubmitTime = eng.Now()
	w.OnComplete = func(r *blockio.Request) { wLat = r.Latency() }
	d.Submit(w)
	eng.Run()
	if wLat > time.Millisecond {
		t.Fatalf("buffered write latency %v, want ≪1ms", wLat)
	}
}

func TestWriteBufferOverflowHitsSpindle(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.WriteBufferSlots = 1
	d := New(eng, cfg, sim.NewRNG(1, "wb"))
	var lats []time.Duration
	for i := 0; i < 3; i++ {
		w := &blockio.Request{Op: blockio.Write, Offset: int64(i) * (100 << 30), Size: 4096}
		w.SubmitTime = eng.Now()
		w.OnComplete = func(r *blockio.Request) { lats = append(lats, r.Latency()) }
		d.Submit(w)
	}
	eng.Run()
	if len(lats) != 3 {
		t.Fatalf("completed %d of 3 writes", len(lats))
	}
	slow := 0
	for _, l := range lats {
		if l > time.Millisecond {
			slow++
		}
	}
	if slow == 0 {
		t.Fatal("overflow writes should pay spindle latency")
	}
}

func TestDestageDoesNotDoubleComplete(t *testing.T) {
	eng, d := newTestDisk(t)
	completions := 0
	w := &blockio.Request{Op: blockio.Write, Offset: 0, Size: 4096}
	w.OnComplete = func(*blockio.Request) { completions++ }
	d.Submit(w)
	eng.Run() // ack + idle destage both happen
	if completions != 1 {
		t.Fatalf("write completed %d times, want exactly 1", completions)
	}
	if d.Served() != 1 {
		t.Fatalf("destaged spindle ops = %d, want 1", d.Served())
	}
}

// ringRig drives a noise-free disk with a small NVRAM ring, recording the
// offset of every spindle operation in service order.
type ringRig struct {
	t      *testing.T
	eng    *sim.Engine
	d      *Disk
	acks   map[int64]int // per-offset completion count
	served []int64       // offsets in spindle-service order
}

func newRingRig(t *testing.T, slots int) *ringRig {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ServiceNoiseStd = 0
	cfg.WriteBufferSlots = slots
	return &ringRig{t: t, eng: eng, d: New(eng, cfg, sim.NewRNG(1, "ring")),
		acks: make(map[int64]int)}
}

// write submits a 4KB write at off.
func (r *ringRig) write(off int64) *blockio.Request {
	w := &blockio.Request{Op: blockio.Write, Offset: off, Size: 4096}
	w.SubmitTime = r.eng.Now()
	w.OnComplete = func(w *blockio.Request) { r.acks[w.Offset]++ }
	r.d.Submit(w)
	return w
}

// serve fires events until n more spindle operations finish, reading the
// head position after each to recover the offset it served.
func (r *ringRig) serve(n int) {
	r.t.Helper()
	for ; n > 0; n-- {
		before := r.d.Served()
		for r.d.Served() == before {
			if !r.eng.Step() {
				r.t.Fatalf("engine drained with %d services outstanding", n)
			}
		}
		r.served = append(r.served, r.d.headPos-4096)
	}
}

// TestDestageRingFIFOAcrossWraps interleaves buffered writes with idle
// destages so a 4-slot ring wraps around more than twice: the spindle must
// destage in submission order, every write must be acked exactly once, and
// the ring must keep the slots it allocated at the first buffered write.
func TestDestageRingFIFOAcrossWraps(t *testing.T) {
	const slots = 4
	r := newRingRig(t, slots)
	var submitted []int64
	next := int64(1)
	submit := func(k int) {
		for ; k > 0; k-- {
			off := next << 30
			next++
			r.write(off)
			submitted = append(submitted, off)
		}
		if r.d.QueueLen() != 0 {
			t.Fatalf("a write overflowed to the device queue with %d buffered", r.d.destage.n)
		}
	}
	// The first write goes straight to the idle spindle; the next four
	// fill the ring. Each later round refills what the destages freed.
	submit(1 + slots)
	first := &r.d.destage.slots[0]
	for _, k := range []int{1, 2, 3, 4} {
		r.serve(k)
		submit(k)
		if r.d.destage.n != slots {
			t.Fatalf("ring holds %d records after refill, want %d", r.d.destage.n, slots)
		}
	}
	r.serve(1 + slots)
	if r.eng.Step() {
		t.Fatal("events pending after every write destaged")
	}
	if len(submitted) < 3*slots {
		t.Fatalf("only %d writes passed through a %d-slot ring; want two wrap-arounds", len(submitted), slots)
	}
	if &r.d.destage.slots[0] != first || len(r.d.destage.slots) != slots {
		t.Fatal("destage ring reallocated its slots")
	}
	if len(r.served) != len(submitted) {
		t.Fatalf("served %d spindle ops for %d writes", len(r.served), len(submitted))
	}
	for i := range submitted {
		if r.served[i] != submitted[i] {
			t.Fatalf("destage order %v, want submission order %v", r.served, submitted)
		}
	}
	if got := r.d.Served(); got != uint64(len(submitted)) {
		t.Fatalf("Served() = %d, want one per write (%d)", got, len(submitted))
	}
	for _, off := range submitted {
		if r.acks[off] != 1 {
			t.Fatalf("write at %d acked %d times, want 1", off, r.acks[off])
		}
	}
	if r.d.InFlight() != 0 {
		t.Fatalf("inflight %d after drain", r.d.InFlight())
	}
}

// TestDestageRingFullGoesToQueue: a write arriving at a full ring is not
// absorbed; it joins the device queue, is served before the buffered
// destages, and acks at spindle latency.
func TestDestageRingFullGoesToQueue(t *testing.T) {
	const slots = 4
	r := newRingRig(t, slots)
	for i := int64(1); i <= 1+slots; i++ {
		r.write(i << 30)
	}
	if r.d.destage.n != slots || r.d.QueueLen() != 0 {
		t.Fatalf("ring %d, queue %d; want a full ring and an empty queue", r.d.destage.n, r.d.QueueLen())
	}
	over := r.write(100 << 30)
	if r.d.destage.n != slots || r.d.QueueLen() != 1 {
		t.Fatalf("ring %d, queue %d after the overflow write; want %d and 1", r.d.destage.n, r.d.QueueLen(), slots)
	}
	r.serve(2)
	if r.served[1] != over.Offset {
		t.Fatalf("second spindle op served %d, want the queued overflow write %d", r.served[1], over.Offset)
	}
	if over.Latency() < time.Millisecond {
		t.Fatalf("overflow write acked in %v, want spindle latency", over.Latency())
	}
	r.eng.Run()
	if got, want := r.d.Served(), uint64(2+slots); got != want {
		t.Fatalf("Served() = %d, want %d", got, want)
	}
}

// BenchmarkDestagePop keeps the default 4096-slot NVRAM buffer full: each
// op destages the oldest record and buffers (and acks) one new write.
func BenchmarkDestagePop(b *testing.B) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := New(eng, cfg, sim.NewRNG(1, "destage-bench"))
	rng := sim.NewRNG(1, "destage-bench-offsets")
	var pool blockio.Pool
	done := func(req *blockio.Request) { req.Release() }
	submit := func() {
		req := pool.Get()
		req.Op = blockio.Write
		req.Offset = rng.Int63n(cfg.CapacityBytes>>12-1) << 12
		req.Size = 4096
		req.OnComplete = done
		d.Submit(req)
	}
	serveOne := func() {
		served := d.Served()
		for d.Served() == served && eng.Step() {
		}
	}
	for i := 0; i < cfg.WriteBufferSlots; i++ {
		submit()
	}
	for i := 0; i < 64; i++ {
		serveOne()
		submit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOne()
		submit()
	}
}

func TestCanceledRequestSkipped(t *testing.T) {
	eng, d := newTestDisk(t)
	served := 0
	r1 := read(0, 4096)
	r1.OnComplete = func(*blockio.Request) { served++ }
	r2 := read(500<<30, 4096)
	r2.OnComplete = func(*blockio.Request) { served++ }
	r3 := read(900<<30, 4096)
	r3.OnComplete = func(*blockio.Request) { served++ }
	d.Submit(r1)
	d.Submit(r2)
	d.Submit(r3)
	r2.Cancel()
	eng.Run()
	if served != 2 {
		t.Fatalf("served %d, want 2 (one canceled)", served)
	}
	if d.InFlight() != 0 {
		t.Fatalf("inflight %d after drain", d.InFlight())
	}
}

func TestInFlightAccounting(t *testing.T) {
	eng, d := newTestDisk(t)
	r := read(0, 4096)
	r.OnComplete = func(*blockio.Request) {}
	d.Submit(r)
	if d.InFlight() != 1 {
		t.Fatalf("inflight = %d, want 1", d.InFlight())
	}
	eng.Run()
	if d.InFlight() != 0 {
		t.Fatalf("inflight = %d after completion", d.InFlight())
	}
}

func TestSlotFreeHookFires(t *testing.T) {
	eng, d := newTestDisk(t)
	fired := 0
	d.SetSlotFreeHook(func() { fired++ })
	r := read(0, 4096)
	r.OnComplete = func(*blockio.Request) {}
	d.Submit(r)
	eng.Run()
	if fired == 0 {
		t.Fatal("slot-free hook never fired")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	_, d := newTestDisk(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range IO")
		}
	}()
	d.Submit(read(d.Config().CapacityBytes, 4096))
}

func TestLargerIOTakesLonger(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.ServiceNoiseStd = 0
	d := New(eng, cfg, sim.NewRNG(1, "size"))
	lat := func(size int) time.Duration {
		r := read(500<<30, size)
		r.SubmitTime = eng.Now()
		var l time.Duration
		r.OnComplete = func(r *blockio.Request) { l = r.Latency() }
		d.Submit(r)
		eng.Run()
		return l
	}
	small := lat(4096)
	large := lat(1 << 20)
	if large <= small {
		t.Fatalf("1MB read (%v) not slower than 4KB (%v)", large, small)
	}
	// The paper's noise injector: a 1MB read adds ~12ms of busy time.
	if large < 5*time.Millisecond {
		t.Fatalf("1MB read %v implausibly fast", large)
	}
}

func TestProfileAccuracy(t *testing.T) {
	cfg := DefaultConfig()
	prof := ProfileTwin(cfg, 42, DefaultProfilerOptions())
	// Compare prediction vs the analytic noise-free service time across
	// distances. Errors should be well under a millisecond on average.
	eng := sim.NewEngine()
	truth := New(eng, Config{
		CapacityBytes: cfg.CapacityBytes, SeekBase: cfg.SeekBase,
		SeekMax: cfg.SeekMax, SeqThreshold: cfg.SeqThreshold,
		SeqCost: cfg.SeqCost, TransferPerKB: cfg.TransferPerKB,
		QueueDepth: 1,
	}, sim.NewRNG(1, "truth"))
	var sumErr time.Duration
	n := 0
	for _, distGB := range []int64{1, 10, 50, 100, 250, 500, 900} {
		dist := distGB << 30
		want := truth.ServiceTime(0, read(dist, 4096))
		got := prof.ServiceTime(dist, 4096)
		err := got - want
		if err < 0 {
			err = -err
		}
		sumErr += err
		n++
	}
	avg := sumErr / time.Duration(n)
	if avg > time.Millisecond {
		t.Fatalf("profile mean abs error %v > 1ms", avg)
	}
}

func TestProfileSeekMonotoneOverall(t *testing.T) {
	prof := ProfileTwin(DefaultConfig(), 7, ProfilerOptions{Buckets: 16, Tries: 8, ProbeSize: 4096})
	first := prof.SeekCost(prof.BucketBytes)
	last := prof.SeekCost(prof.BucketBytes * int64(len(prof.SeekBuckets)-1))
	if last <= first {
		t.Fatalf("seek profile not increasing: near=%v far=%v", first, last)
	}
}

func TestProfileServiceTimeScalesWithSize(t *testing.T) {
	prof := ProfileTwin(DefaultConfig(), 7, ProfilerOptions{Buckets: 8, Tries: 4, ProbeSize: 4096})
	if prof.ServiceTime(1<<30, 1<<20) <= prof.ServiceTime(1<<30, 4096) {
		t.Fatal("profile ignores IO size")
	}
}

func TestPropertySeekCostSymmetricNonNegative(t *testing.T) {
	prof := ProfileTwin(DefaultConfig(), 9, ProfilerOptions{Buckets: 8, Tries: 3, ProbeSize: 4096})
	f := func(raw int64) bool {
		d := raw % (1000 << 30)
		return prof.SeekCost(d) >= 0 && prof.SeekCost(d) == prof.SeekCost(-d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		eng := sim.NewEngine()
		d := New(eng, DefaultConfig(), sim.NewRNG(5, "replay"))
		rng := sim.NewRNG(6, "offsets")
		var lats []time.Duration
		for i := 0; i < 50; i++ {
			r := read(rng.Int63n(900<<30), 4096)
			r.SubmitTime = eng.Now()
			r.OnComplete = func(r *blockio.Request) { lats = append(lats, r.Latency()) }
			d.Submit(r)
		}
		eng.Run()
		return lats
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPropertyAgingBoundsStarvation(t *testing.T) {
	// Under a continuous stream of near-head arrivals, no queued IO may
	// starve beyond roughly AgeLimit + one service time — the command
	// aging guarantee the predictors rely on.
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		d := New(eng, cfg, sim.NewRNG(seed, "aging"))
		rng := sim.NewRNG(seed, "stream")
		// Far victim enters first (after a warm-up IO).
		warm := read(100<<30, 4096)
		warm.OnComplete = func(*blockio.Request) {}
		d.Submit(warm)
		victim := read(900<<30, 4096)
		var waited time.Duration
		victim.OnComplete = func(r *blockio.Request) { waited = r.Latency() }
		victim.SubmitTime = eng.Now()
		d.Submit(victim)
		// Continuous near-head stream for 2 seconds.
		tick := eng.NewTicker(3*time.Millisecond, func() {
			if d.QueueLen() > 8 {
				return
			}
			r := read(rng.Int63n(200<<30), 4096)
			r.OnComplete = func(*blockio.Request) {}
			d.Submit(r)
		})
		eng.RunUntil(sim.Time(2 * sim.Second))
		tick.Stop()
		eng.Run()
		// Bound: age limit + a couple of worst-case services.
		return waited > 0 && waited < cfg.AgeLimit+40*time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
