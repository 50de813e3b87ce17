package mittos

import (
	"errors"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/sim"
)

func TestStackReadIdleDiskAccepts(t *testing.T) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Mitt: true, Seed: 1})
	var err error = ErrBusy
	s.Read(100<<30, 4096, 30*time.Millisecond, func(e error) { err = e })
	eng.Run()
	if err != nil {
		t.Fatalf("idle read: %v", err)
	}
}

func TestStackReadBusyDiskRejects(t *testing.T) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Mitt: true, Seed: 1})
	for i := 0; i < 30; i++ {
		s.Read(int64(i+1)*(20<<30), 1<<20, 0, func(error) {})
	}
	var err error
	s.Read(900<<30, 4096, 10*time.Millisecond, func(e error) { err = e })
	if !IsBusy(err) {
		// The rejection is delivered via a scheduled event; run briefly.
		eng.RunFor(time.Millisecond)
	}
	eng.Run()
	if !IsBusy(err) {
		t.Fatalf("busy read: %v, want EBUSY", err)
	}
	var be *BusyError
	if b, ok := err.(*BusyError); ok {
		be = b
	}
	if be == nil || be.PredictedWait <= 10*time.Millisecond {
		t.Fatalf("BusyError wait hint missing or implausible: %v", err)
	}
}

func TestStackVanillaIgnoresDeadlines(t *testing.T) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Mitt: false, Seed: 1})
	for i := 0; i < 30; i++ {
		s.Read(int64(i+1)*(20<<30), 1<<20, 0, func(error) {})
	}
	var err error = ErrBusy
	s.Read(900<<30, 4096, time.Millisecond, func(e error) { err = e })
	eng.Run()
	if err != nil {
		t.Fatalf("vanilla stack returned %v; deadlines must be ignored", err)
	}
}

func TestStackSSD(t *testing.T) {
	eng := NewEngine()
	cfg := DefaultSSDConfig()
	cfg.Channels = 4
	cfg.ChipsPerChannel = 2
	cfg.BlocksPerChip = 16
	cfg.PagesPerBlock = 64
	cfg.OverprovisionBlocks = 4
	s := NewStack(eng, StackConfig{Device: DeviceSSD, SSDConfig: cfg, Mitt: true, Seed: 1})
	// A write occupies chip 0; a tight-deadline read behind it is rejected.
	s.Write(0, cfg.PageSize, func(error) {})
	var err error
	s.Read(0, 4096, 300*time.Microsecond, func(e error) { err = e })
	eng.Run()
	if !IsBusy(err) {
		t.Fatalf("SSD read behind program: %v, want EBUSY", err)
	}
}

func TestStackAddrCheck(t *testing.T) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Mitt: true, CachePages: 1000, Seed: 1})
	s.Cache.Warm(0, 4096)
	if err := s.AddrCheck(0, 4096, 100*time.Microsecond); err != nil {
		t.Fatalf("resident addrcheck: %v", err)
	}
	s.Cache.EvictRange(0, 4096)
	if err := s.AddrCheck(0, 4096, 100*time.Microsecond); !IsBusy(err) {
		t.Fatalf("evicted addrcheck: %v, want EBUSY", err)
	}
	eng.Run()
}

func TestStackAddrCheckRequiresCache(t *testing.T) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Mitt: true, Seed: 1})
	if err := s.AddrCheck(0, 4096, time.Millisecond); err == nil || IsBusy(err) {
		t.Fatalf("cache-less AddrCheck: %v, want configuration error", err)
	}
}

func TestStackPredictWaitGrowsWithQueue(t *testing.T) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Scheduler: SchedulerNoop, Mitt: true, Seed: 1})
	if w := s.PredictWait(500<<30, 4096); w != 0 {
		t.Fatalf("idle wait = %v", w)
	}
	for i := 0; i < 10; i++ {
		s.Read(int64(i+1)*(50<<30), 1<<20, 0, func(error) {})
	}
	if w := s.PredictWait(900<<30, 4096); w < 10*time.Millisecond {
		t.Fatalf("queued wait = %v, want tens of ms", w)
	}
	eng.Run()
}

func TestClusterFacade(t *testing.T) {
	eng := NewEngine()
	net := NewNetwork(eng, 0, NewRNG(1, "net"))
	tmpl := NodeConfig{
		Device:      DeviceDisk,
		DiskConfig:  DefaultDiskConfig(),
		UseCFQ:      true,
		Mitt:        true,
		MittOptions: DefaultOptions(),
		Keys:        5000,
		DiskProfile: DiskProfile(),
	}
	c := NewCluster(eng, net, 3, 3, tmpl, NewRNG(2, "nodes"))
	strat := &MittOSStrategy{C: c, Deadline: 20 * time.Millisecond}
	var res GetResult
	strat.Get(7, func(r GetResult) { res = r })
	eng.Run()
	if res.Err != nil {
		t.Fatalf("facade cluster get: %v", res.Err)
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	if _, err := RunExperiment("fig99", true); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestExperimentsListComplete(t *testing.T) {
	ids := Experiments()
	want := []string{"allinone", "failslow", "fig10", "fig11", "fig12", "fig13",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "loadsweep",
		"table1", "writes", "ycsbmix"}
	if len(ids) != len(want) {
		t.Fatalf("experiments = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("experiments = %v, want %v", ids, want)
		}
	}
}

func TestRunExperimentQuickSmoke(t *testing.T) {
	// One cheap end-to-end run through the facade.
	res, err := RunExperiment("writes", true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "writes" || len(res.Series) == 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestStackDeadlineScheduler(t *testing.T) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Scheduler: SchedulerDeadline,
		Mitt: true, Seed: 1})
	for i := 0; i < 15; i++ {
		s.Read(int64(i+1)*(40<<30), 1<<20, 0, func(error) {})
	}
	var err error
	s.Read(900<<30, 4096, 10*time.Millisecond, func(e error) { err = e })
	eng.Run()
	if !IsBusy(err) {
		t.Fatalf("deadline-sched busy read: %v, want EBUSY", err)
	}
	if s.Accuracy().Total() != 0 {
		t.Fatal("non-shadow stack should not accumulate accuracy")
	}
}

func TestSeedRobustness(t *testing.T) {
	// The headline ordering (MittCFQ beats Hedged at p95) must hold under
	// fresh noise timelines, not just the default seed.
	for _, seed := range []int64{2, 3} {
		res, err := RunExperimentSeed("fig5", true, seed)
		if err != nil {
			t.Fatal(err)
		}
		mitt := res.FindSeries("MittCFQ").Sample
		hedged := res.FindSeries("Hedged").Sample
		if mitt.Percentile(95) >= hedged.Percentile(95) {
			t.Fatalf("seed %d: MittCFQ p95 %v not better than Hedged %v",
				seed, mitt.Percentile(95), hedged.Percentile(95))
		}
	}
}

func TestStackSSDWithCache(t *testing.T) {
	eng := NewEngine()
	cfg := DefaultSSDConfig()
	cfg.Channels = 4
	cfg.ChipsPerChannel = 2
	cfg.BlocksPerChip = 16
	cfg.PagesPerBlock = 64
	cfg.OverprovisionBlocks = 4
	s := NewStack(eng, StackConfig{Device: DeviceSSD, SSDConfig: cfg,
		Mitt: true, CachePages: 1000, Seed: 1})
	// A cached page serves at memory speed even while the chip programs.
	s.Cache.Warm(0, 4096)
	s.Write(0, cfg.PageSize, func(error) {})
	var err error = ErrBusy
	var lat time.Duration
	start := eng.Now()
	s.Read(0, 4096, 100*time.Microsecond, func(e error) {
		err = e
		lat = eng.Now().Sub(start)
	})
	eng.Run()
	if err != nil {
		t.Fatalf("cached SSD read: %v", err)
	}
	if lat > time.Millisecond {
		t.Fatalf("cached read took %v; should not touch the busy chip", lat)
	}
}

func TestStackVanillaWithCache(t *testing.T) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Mitt: false,
		CachePages: 1000, Seed: 1})
	s.Cache.Warm(0, 4096)
	var err error = ErrBusy
	s.Read(0, 4096, time.Nanosecond, func(e error) { err = e })
	eng.Run()
	if err != nil {
		t.Fatalf("vanilla cached read: %v (deadline must be ignored)", err)
	}
	if s.PredictWait(0, 4096) != 0 {
		t.Fatal("vanilla stack should predict nothing")
	}
}

func TestStackWriteCompletes(t *testing.T) {
	eng := NewEngine()
	s := NewStack(eng, StackConfig{Device: DeviceDisk, Mitt: true, Seed: 1})
	done := false
	s.Write(4096, 4096, func(e error) {
		if e != nil {
			t.Fatalf("write: %v", e)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("write never completed")
	}
}

// TestStackMittDeliversDeviceErrors: every Mitt disk layer hands an
// injected device EIO to the caller of an admitted deadline read, exactly
// as the vanilla stack does.
func TestStackMittDeliversDeviceErrors(t *testing.T) {
	for _, sched := range []struct {
		name string
		kind SchedulerKind
	}{{"noop", SchedulerNoop}, {"cfq", SchedulerCFQ}, {"deadline", SchedulerDeadline}} {
		t.Run(sched.name, func(t *testing.T) {
			eng := NewEngine()
			s := NewStack(eng, StackConfig{Device: DeviceDisk, Scheduler: sched.kind, Mitt: true, Seed: 1})
			s.Disk.SetErrorInjection(1.0, sim.NewRNG(1, "stack-eio"))
			var err error
			calls := 0
			s.Read(100<<30, 4096, 30*time.Millisecond, func(e error) { err = e; calls++ })
			eng.Run()
			if calls != 1 || !errors.Is(err, blockio.ErrIO) {
				t.Fatalf("%s read: %d callbacks, last error %v; want one ErrIO", sched.name, calls, err)
			}
		})
	}
}
