package core

import (
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/sim"
)

type dlRig struct {
	eng  *sim.Engine
	disk *disk.Disk
	mitt *MittDeadline
	ids  blockio.IDGen
}

func newDLRig(t *testing.T, opt Options) *dlRig {
	t.Helper()
	eng := sim.NewEngine()
	cfg := disk.DefaultConfig()
	d := disk.New(eng, cfg, sim.NewRNG(81, t.Name()))
	sched := iosched.NewDeadline(eng, iosched.DefaultDeadlineConfig(), d)
	prof := disk.ProfileTwin(cfg, 42, disk.ProfilerOptions{Buckets: 16, Tries: 4, ProbeSize: 4096})
	return &dlRig{eng: eng, disk: d, mitt: NewMittDeadline(eng, sched, prof, opt)}
}

func (r *dlRig) read(off int64, deadline time.Duration, cb func(error)) {
	req := &blockio.Request{ID: r.ids.Next(), Op: blockio.Read, Offset: off,
		Size: 4096, Deadline: deadline}
	r.mitt.SubmitSLO(req, cb)
}

func TestMittDeadlineIdleAccepts(t *testing.T) {
	r := newDLRig(t, DefaultOptions())
	var err error = blockio.ErrBusy
	r.read(100<<30, 20*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if err != nil {
		t.Fatalf("idle read: %v", err)
	}
}

func TestMittDeadlineBusyRejects(t *testing.T) {
	r := newDLRig(t, DefaultOptions())
	for i := 0; i < 15; i++ {
		r.read(int64(i+1)*(40<<30), 0, func(error) {})
	}
	var err error
	r.read(900<<30, 10*time.Millisecond, func(e error) { err = e })
	r.eng.Run()
	if !IsBusy(err) {
		t.Fatalf("busy read: %v, want EBUSY", err)
	}
	acc, rej := r.mitt.Counts()
	if rej != 1 || acc != 15 {
		t.Fatalf("counts = %d/%d", acc, rej)
	}
}

func TestMittDeadlineQueuedWritesCharged(t *testing.T) {
	r := newDLRig(t, DefaultOptions())
	// Queue a pile of writes beyond the NVRAM (writes over the buffer go
	// to the spindle); the read's predicted wait must include their share.
	for i := 0; i < 40; i++ {
		req := &blockio.Request{ID: r.ids.Next(), Op: blockio.Write,
			Offset: int64(i+1) * (20 << 30), Size: 1 << 20}
		r.mitt.SubmitSLO(req, func(error) {})
	}
	if w := r.mitt.PredictWait(); w == 0 {
		t.Fatal("write backlog invisible to the read predictor")
	}
	r.eng.Run()
}

func TestMittDeadlinePredictionDrains(t *testing.T) {
	r := newDLRig(t, DefaultOptions())
	for i := 0; i < 10; i++ {
		r.read(int64(i+1)*(50<<30), 0, func(error) {})
	}
	if w := r.mitt.PredictWait(); w < 10*time.Millisecond {
		t.Fatalf("queued wait %v too small", w)
	}
	r.eng.Run()
	if w := r.mitt.PredictWait(); w > 5*time.Millisecond {
		t.Fatalf("post-drain wait %v; accumulator leaked", w)
	}
}

func TestMittDeadlineShadowAccuracy(t *testing.T) {
	opt := DefaultOptions()
	opt.Shadow = true
	r := newDLRig(t, opt)
	rng := sim.NewRNG(9, "offs")
	r.eng.NewTicker(25*time.Millisecond, func() {
		r.read(rng.Int63n(900<<30), 25*time.Millisecond, func(error) {})
	})
	r.eng.NewTicker(300*time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			r.read(rng.Int63n(900<<30), 25*time.Millisecond, func(error) {})
		}
	})
	r.eng.RunUntil(sim.Time(10 * sim.Second))
	acc := r.mitt.Accuracy()
	if acc.Total() < 300 {
		t.Fatalf("verdicted %d", acc.Total())
	}
	if acc.InaccuracyRate() > 0.12 {
		t.Fatalf("MittDeadline inaccuracy %.1f%% (FP %.1f%%, FN %.1f%%)",
			100*acc.InaccuracyRate(), 100*acc.FalsePosRate(), 100*acc.FalseNegRate())
	}
}

// TestMittDeadlineDropReleasesCharge revokes a queued read: the scheduler's
// drop must hand the IO back to its owner exactly once, reclaim its op and
// take its predicted service out of the queue total, so an idle disk
// predicts no wait.
func TestMittDeadlineDropReleasesCharge(t *testing.T) {
	r := newDLRig(t, DefaultOptions())
	var done, drops int
	var last *blockio.Request
	for i := 0; i < 4; i++ {
		last = &blockio.Request{ID: r.ids.Next(), Op: blockio.Read,
			Offset: int64(i+1) * (50 << 30), Size: 4096, Deadline: time.Second}
		last.OnDrop = func(*blockio.Request) { drops++ }
		r.mitt.SubmitSLO(last, func(err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			done++
		})
	}
	if r.mitt.sched.QueueLen() == 0 {
		t.Fatal("no read left queued to revoke")
	}
	last.Cancel()
	r.eng.Run()
	if done != 3 || drops != 1 {
		t.Fatalf("completions = %d, drops = %d; want 3 and 1", done, drops)
	}
	if out := r.mitt.ops.Out(); out != 0 {
		t.Fatalf("%d ops still out after the drain", out)
	}
	if r.mitt.queueTotal != [2]time.Duration{} {
		t.Fatalf("queue total %v after the drain, want zero", r.mitt.queueTotal)
	}
	if w := r.mitt.PredictWait(); w != 0 {
		t.Fatalf("idle-disk PredictWait = %v, want 0", w)
	}
}
