package core

import (
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/sim"
)

type cfqRig struct {
	eng  *sim.Engine
	disk *disk.Disk
	cfq  *iosched.CFQ
	mitt *MittCFQ
	ids  blockio.IDGen
}

func newCFQRig(t *testing.T, opt Options) *cfqRig {
	t.Helper()
	eng := sim.NewEngine()
	cfg := disk.DefaultConfig()
	d := disk.New(eng, cfg, sim.NewRNG(21, t.Name()))
	cfq := iosched.NewCFQ(eng, iosched.DefaultCFQConfig(), d)
	prof := disk.ProfileTwin(cfg, 42, disk.ProfilerOptions{Buckets: 32, Tries: 6, ProbeSize: 4096})
	return &cfqRig{eng: eng, disk: d, cfq: cfq, mitt: NewMittCFQ(eng, cfq, prof, opt)}
}

func (r *cfqRig) submit(proc int, class blockio.Class, prio int, off int64,
	deadline time.Duration, cb func(error)) *blockio.Request {
	req := &blockio.Request{ID: r.ids.Next(), Op: blockio.Read, Offset: off,
		Size: 4096, Proc: proc, Class: class, Priority: prio, Deadline: deadline}
	r.mitt.SubmitSLO(req, cb)
	return req
}

func TestMittCFQIdleAccepts(t *testing.T) {
	r := newCFQRig(t, DefaultOptions())
	var err error = blockio.ErrBusy
	r.submit(1, blockio.ClassBestEffort, 4, 100<<30, 20*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if err != nil {
		t.Fatalf("idle rejected: %v", err)
	}
}

func TestMittCFQRejectsWhenOtherProcsAhead(t *testing.T) {
	r := newCFQRig(t, DefaultOptions())
	// Noise proc floods 20 IOs.
	for i := 0; i < 20; i++ {
		r.submit(9, blockio.ClassBestEffort, 4, int64(i+1)*(40<<30), 0, func(error) {})
	}
	var err error
	r.submit(1, blockio.ClassBestEffort, 4, 500<<30, 10*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if !IsBusy(err) {
		t.Fatalf("expected EBUSY behind 20-deep noise queue, got %v", err)
	}
	_, rej, _ := r.mitt.Counts()
	if rej != 1 {
		t.Fatalf("rejected = %d", rej)
	}
}

func TestMittCFQRealTimeNotBlockedByBestEffort(t *testing.T) {
	// An RT-class request does not wait behind BE noise, so MittCFQ should
	// accept it where an equally-deadlined BE request is rejected.
	r := newCFQRig(t, DefaultOptions())
	for i := 0; i < 20; i++ {
		r.submit(9, blockio.ClassBestEffort, 4, int64(i+1)*(40<<30), 0, func(error) {})
	}
	// The deadline must cover the device-resident quantum (which nobody
	// preempts) but not the full BE backlog.
	deadline := 45 * time.Millisecond
	var beErr, rtErr error
	r.submit(1, blockio.ClassBestEffort, 4, 500<<30, deadline, func(e error) { beErr = e })
	r.submit(2, blockio.ClassRealTime, 0, 500<<30, deadline, func(e error) { rtErr = e })
	r.eng.Run()
	if !IsBusy(beErr) {
		t.Fatalf("BE request not rejected: %v", beErr)
	}
	if rtErr != nil {
		t.Fatalf("RT request rejected or failed: %v", rtErr)
	}
}

func TestMittCFQLateCancellation(t *testing.T) {
	// The §4.2 bump-back scenario: a BE IO is accepted with slack, then a
	// burst of RT IOs consumes its tolerable time; the accepted IO must be
	// cancelled with EBUSY instead of silently missing its deadline.
	r := newCFQRig(t, DefaultOptions())
	// Seed enough BE noise to fill the dispatch quantum (so the victim
	// stays in the CFQ queues, still cancellable) and give it a wait
	// close to — but under — its deadline.
	for i := 0; i < 5; i++ {
		r.submit(9, blockio.ClassBestEffort, 5, int64(i+1)*(100<<30), 0, func(error) {})
	}
	var victimErr error
	victimDone := false
	r.submit(1, blockio.ClassBestEffort, 4, 500<<30, 48*time.Millisecond, func(e error) {
		victimErr = e
		victimDone = true
	})
	// Burst of high-priority RT IOs right behind it.
	for i := 0; i < 12; i++ {
		r.submit(2, blockio.ClassRealTime, 0, int64(i+1)*(60<<30), 0, func(error) {})
	}
	r.eng.Run()
	if !victimDone {
		t.Fatal("victim never resolved")
	}
	_, _, cancelled := r.mitt.Counts()
	if cancelled == 0 {
		t.Fatal("no late cancellation happened; tolerable-time table inert")
	}
	if !IsBusy(victimErr) {
		t.Fatalf("victim got %v, want late EBUSY", victimErr)
	}
	// The cancelled IO must not reach the disk.
	if got := r.disk.Served(); got != 17 {
		t.Fatalf("disk served %d IOs, want 17 (victim dropped)", got)
	}
}

func TestMittCFQNoDeadlineNeverRejected(t *testing.T) {
	r := newCFQRig(t, DefaultOptions())
	for i := 0; i < 30; i++ {
		r.submit(9, blockio.ClassBestEffort, 4, int64(i+1)*(20<<30), 0, func(error) {})
	}
	done := 0
	r.submit(1, blockio.ClassBestEffort, 4, 500<<30, 0, func(e error) {
		if e != nil {
			t.Fatalf("no-SLO IO got %v", e)
		}
		done++
	})
	r.eng.Run()
	if done != 1 {
		t.Fatal("no-SLO IO did not complete")
	}
}

func TestMittCFQNodeTotalsDrainToZero(t *testing.T) {
	r := newCFQRig(t, DefaultOptions())
	for i := 0; i < 10; i++ {
		r.submit(3, blockio.ClassBestEffort, 4, int64(i+1)*(50<<30), 0, func(error) {})
	}
	r.eng.Run()
	if w := r.mitt.PredictWait(3, blockio.ClassBestEffort); w > 6*time.Millisecond {
		t.Fatalf("post-drain predicted wait %v; node totals leaked", w)
	}
}

func TestMittCFQShadowAccuracyUnderContention(t *testing.T) {
	opt := DefaultOptions()
	opt.Shadow = true
	r := newCFQRig(t, opt)
	rng := sim.NewRNG(5, "offs")
	// Noise proc: bursts of 4 every 120ms.
	r.eng.NewTicker(120*time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			r.submit(9, blockio.ClassBestEffort, 6, rng.Int63n(900<<30), 0, func(error) {})
		}
	})
	// Probes with a deadline near the workload's p95.
	r.eng.NewTicker(30*time.Millisecond, func() {
		r.submit(1, blockio.ClassBestEffort, 2, rng.Int63n(900<<30), 35*time.Millisecond, func(error) {})
	})
	r.eng.RunUntil(sim.Time(12 * sim.Second))
	acc := r.mitt.Accuracy()
	if acc.Total() < 300 {
		t.Fatalf("verdicted %d", acc.Total())
	}
	if acc.InaccuracyRate() > 0.10 {
		t.Fatalf("MittCFQ inaccuracy %.1f%% too high (FP %.1f%%, FN %.1f%%)",
			100*acc.InaccuracyRate(), 100*acc.FalsePosRate(), 100*acc.FalseNegRate())
	}
}

func TestMittCFQErrorInjection(t *testing.T) {
	r := newCFQRig(t, DefaultOptions())
	r.mitt.SetErrorInjection(0, 1.0, sim.NewRNG(2, "inj"))
	var err error
	r.submit(1, blockio.ClassBestEffort, 4, 100<<30, 20*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if !IsBusy(err) {
		t.Fatalf("100%% FP injection accepted: %v", err)
	}
}

func TestOutranks(t *testing.T) {
	cases := []struct {
		ca   blockio.Class
		pa   int
		cb   blockio.Class
		pb   int
		want bool
	}{
		{blockio.ClassRealTime, 7, blockio.ClassBestEffort, 0, true},
		{blockio.ClassBestEffort, 0, blockio.ClassRealTime, 7, false},
		{blockio.ClassBestEffort, 2, blockio.ClassBestEffort, 5, true},
		{blockio.ClassBestEffort, 5, blockio.ClassBestEffort, 2, false},
		{blockio.ClassBestEffort, 4, blockio.ClassBestEffort, 4, false},
		{blockio.ClassIdle, 0, blockio.ClassBestEffort, 7, false},
	}
	for _, c := range cases {
		if got := outranks(c.ca, c.pa, c.cb, c.pb); got != c.want {
			t.Fatalf("outranks(%v/%d, %v/%d) = %v", c.ca, c.pa, c.cb, c.pb, got)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[time.Duration]int64{
		0:                        0,
		500 * time.Microsecond:   0,
		time.Millisecond:         1,
		9500 * time.Microsecond:  9,
		-500 * time.Microsecond:  -1,
		-time.Millisecond:        -1,
		-1500 * time.Microsecond: -2,
	}
	for d, want := range cases {
		if got := bucketOf(d); got != want {
			t.Fatalf("bucketOf(%v) = %d, want %d", d, got, want)
		}
	}
}

// checkPoolDrained asserts a freelist got back everything it handed out,
// each object exactly once: it acquires every parked object back to compare
// pointers, then releases them in reverse to restore the LIFO order.
func checkPoolDrained[T any, P sim.Binder[T]](t *testing.T, name string, f *sim.Freelist[T]) {
	t.Helper()
	if n := f.Out(); n != 0 {
		t.Errorf("%s has %d objects outstanding after the drain", name, n)
	}
	parked := make([]*T, f.Len())
	seen := make(map[*T]bool, len(parked))
	for i := range parked {
		x := (*T)(sim.Acquire[T, P](f))
		if seen[x] {
			t.Errorf("%s holds %p twice (double release)", name, x)
		}
		seen[x] = true
		parked[i] = x
	}
	for i := len(parked) - 1; i >= 0; i-- {
		f.Release(parked[i])
	}
}

// TestMittCFQPoolsDrainAcrossTerminals drives one MittCFQ through all four
// ways an IO leaves it — completion, fast reject, late cancel, and a
// revoked IO the scheduler drops before dispatch — and checks that the op,
// dispatch-wrapper, mirror-entry and EBUSY-reply pools get every context
// back exactly once.
func TestMittCFQPoolsDrainAcrossTerminals(t *testing.T) {
	r := newCFQRig(t, DefaultOptions())
	noise := func(n, prio int, stride int64) {
		for i := 0; i < n; i++ {
			r.submit(9, blockio.ClassBestEffort, prio, int64(i+1)*stride, 0, func(error) {})
		}
	}

	// Completion.
	var err error = blockio.ErrBusy
	r.submit(1, blockio.ClassBestEffort, 4, 100<<30, 20*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if err != nil {
		t.Fatalf("idle IO: %v, want completion", err)
	}

	// Late cancel: the §4.2 bump-back of TestMittCFQLateCancellation.
	noise(5, 5, 100<<30)
	err = nil
	r.submit(1, blockio.ClassBestEffort, 4, 500<<30, 48*time.Millisecond, func(e error) { err = e })
	for i := 0; i < 12; i++ {
		r.submit(2, blockio.ClassRealTime, 0, int64(i+1)*(60<<30), 0, func(error) {})
	}
	r.eng.Run()
	if _, _, cancelled := r.mitt.Counts(); cancelled == 0 || !IsBusy(err) {
		t.Fatalf("late cancel: cancelled = %d, victim got %v", cancelled, err)
	}

	// Fast reject.
	noise(20, 4, 40<<30)
	err = nil
	r.submit(1, blockio.ClassBestEffort, 4, 500<<30, 10*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if _, rejected, _ := r.mitt.Counts(); rejected != 1 || !IsBusy(err) {
		t.Fatalf("fast reject: rejected = %d, got %v", rejected, err)
	}

	// Revoked: accepted with a table entry, then cancelled by its owner
	// while still queued, so CFQ drops it and its callback never runs.
	noise(5, 4, 100<<30)
	served := r.disk.Served()
	revoked := r.submit(1, blockio.ClassBestEffort, 4, 500<<30, 10*time.Second, func(error) {
		t.Error("revoked IO's callback ran")
	})
	revoked.Cancel()
	r.eng.Run()
	if got := r.disk.Served() - served; got != 5 {
		t.Fatalf("revoked phase: disk served %d IOs, want 5 (revoked IO dropped)", got)
	}

	checkPoolDrained(t, "ops", &r.mitt.ops)
	checkPoolDrained(t, "mirror wraps", &r.mitt.mirror.wraps)
	checkPoolDrained(t, "mirror entries", &r.mitt.mirror.entries)
	checkPoolDrained(t, "replies", &r.mitt.replies.pool)
	if r.mitt.ops.Len() == 0 || r.mitt.mirror.wraps.Len() == 0 || r.mitt.replies.pool.Len() == 0 {
		t.Fatalf("pools never used: ops %d, wraps %d, replies %d parked",
			r.mitt.ops.Len(), r.mitt.mirror.wraps.Len(), r.mitt.replies.pool.Len())
	}
}
