// Package benchkit holds the headline benchmark bodies: the admission,
// scheduler, write-path, seek-profile and engine microbenchmarks, and the
// Fig4, YCSBMix and LoadSweep experiment runs. The root package's go-test
// benchmarks and `mittbench -bench-json` both run these bodies, so the two
// always time the same code.
package benchkit

import (
	"testing"
	"time"

	"mittos"
	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/experiments"
	"mittos/internal/kv"
	"mittos/internal/sim"
)

// Row is one headline benchmark: the name `mittbench -bench-json` records
// it under, and its body.
type Row struct {
	Name string
	Body func(*testing.B)
}

// Rows lists the headline benchmarks in `mittbench -bench-json` order.
var Rows = []Row{
	{"Fig4", Fig4},
	{"AdmissionDecision", AdmissionDecision},
	{"EngineThroughput", EngineThroughput},
	{"EngineCancelHeavy/wheel", EngineCancelHeavy},
	{"EngineMixedHorizon/wheel", EngineMixedHorizon},
	{"PredictWaitCFQ/4", PredictWaitCFQ(4)},
	{"PredictWaitCFQ/32", PredictWaitCFQ(32)},
	{"PredictWaitCFQ/256", PredictWaitCFQ(256)},
	{"YCSBMix", YCSBMix},
	{"LoadSweep", LoadSweep},
	{"PutAdmission", PutAdmission},
	{"CFQSubmitDispatch", CFQSubmitDispatch},
	{"SeekCost", SeekCost},
}

// sink defeats dead-code elimination in the SeekCost body.
var sink time.Duration

// ReportTailMetrics attaches a series' headline percentiles to the bench.
func ReportTailMetrics(b *testing.B, res *mittos.ExperimentResult, series string, prefix string) {
	b.Helper()
	s := res.FindSeries(series)
	if s == nil {
		return
	}
	b.ReportMetric(float64(s.Sample.Percentile(95))/1e6, prefix+"-p95-ms")
	b.ReportMetric(float64(s.Sample.Percentile(99))/1e6, prefix+"-p99-ms")
}

// Experiment regenerates experiment id end-to-end at quick scale b.N times
// and returns the last result.
func Experiment(b *testing.B, id string) *mittos.ExperimentResult {
	b.Helper()
	var res *mittos.ExperimentResult
	for i := 0; i < b.N; i++ {
		r, err := mittos.RunExperiment(id, true)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	return res
}

// Fig4 regenerates Figure 4 (the four microbenchmarks) with 4 s legs.
func Fig4(b *testing.B) {
	b.ReportAllocs()
	opt := experiments.QuickFig4Options()
	opt.Duration = 4 * time.Second
	var res *mittos.ExperimentResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig4(opt)
	}
	ReportTailMetrics(b, res, "CFQ-LowPrioNoise/MittOS", "mitt")
	ReportTailMetrics(b, res, "CFQ-LowPrioNoise/Base", "base")
}

// YCSBMix regenerates the YCSB A/B/F mixed-workload matrix (every read
// strategy paired with its write-side mirror over quorum puts).
func YCSBMix(b *testing.B) {
	b.ReportAllocs()
	res := Experiment(b, "ycsbmix")
	ReportTailMetrics(b, res, "A/MittOS put", "mitt-put")
	ReportTailMetrics(b, res, "A/Base put", "base-put")
}

// LoadSweep regenerates the offered-load sweep (calibration plus the full
// rate × strategy × path matrix of open-loop Poisson legs). The custom
// metrics carry the headline comparison: SLO attainment at the highest
// pre-saturation rate for MittOS vs Base on the get path.
func LoadSweep(b *testing.B) {
	b.ReportAllocs()
	res := Experiment(b, "loadsweep")
	var kneeGet struct{ base, mitt float64 }
	knee := 0.0
	for _, p := range res.Sweep {
		if p.Path == "get" && p.RateMult < 1.0 && p.RateMult > knee {
			knee = p.RateMult
		}
	}
	for _, p := range res.Sweep {
		if p.Path != "get" || p.RateMult != knee {
			continue
		}
		switch p.Strategy {
		case "Base":
			kneeGet.base = p.AttainPct
		case "MittOS":
			kneeGet.mitt = p.AttainPct
		}
	}
	b.ReportMetric(kneeGet.mitt, "mitt-attain-%")
	b.ReportMetric(kneeGet.base, "base-attain-%")
}

// AdmissionStack returns the AdmissionDecision fixture: a MittOS disk
// stack on the noop scheduler with sixteen 1 MB reads queued.
func AdmissionStack() *mittos.Stack {
	eng := mittos.NewEngine()
	s := mittos.NewStack(eng, mittos.StackConfig{
		Device: mittos.DeviceDisk, Scheduler: mittos.SchedulerNoop, Mitt: true, Seed: 1})
	for i := 0; i < 16; i++ {
		s.Read(int64(i+1)*(40<<30), 1<<20, 0, func(error) {})
	}
	return s
}

// AdmissionDecision measures the cost of one MittOS admission decision in
// the simulator — the analogue of the paper's <5µs syscall claim (here:
// pure prediction cost, no kernel crossing).
func AdmissionDecision(b *testing.B) {
	s := AdmissionStack()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.PredictWait(int64(i%900)<<30, 4096)
	}
}

// PredictWaitCFQ returns the body measuring MittCFQ's admission prediction
// with procs process nodes queued — the path the augmented service trees
// turned from an O(P) walk into O(log P) prefix queries, so ns/op should
// stay nearly flat as procs grows.
func PredictWaitCFQ(procs int) func(*testing.B) {
	return func(b *testing.B) {
		eng := mittos.NewEngine()
		s := mittos.NewStack(eng, mittos.StackConfig{
			Device: mittos.DeviceDisk, Scheduler: mittos.SchedulerCFQ, Mitt: true, Seed: 1})
		var ids blockio.IDGen
		for p := 0; p < procs; p++ {
			for k := 0; k < 2; k++ {
				req := &mittos.Request{ID: ids.Next(), Op: mittos.OpRead,
					Offset: int64(p*7+k+1) * (1 << 30), Size: 1 << 20, Proc: p + 2}
				s.Target().SubmitSLO(req, func(error) {})
			}
		}
		_ = s.PredictWait(100<<30, 4096) // warm the replay scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.PredictWait(int64(i%900)<<30, 4096)
		}
	}
}

// CFQSubmit returns the CFQSubmitDispatch fixture: a func that runs one
// pooled 4 KB read at off, with a 1 s deadline, through a MittCFQ disk
// stack to completion. Every pool on the path is already warm.
func CFQSubmit() func(off int64) {
	eng := mittos.NewEngine()
	s := mittos.NewStack(eng, mittos.StackConfig{
		Device: mittos.DeviceDisk, Scheduler: mittos.SchedulerCFQ, Mitt: true, Seed: 1})
	var pool blockio.Pool
	var ids blockio.IDGen
	var cur *blockio.Request
	done := func(error) { cur.Release() }
	submit := func(off int64) {
		cur = pool.Get()
		cur.ID = ids.Next()
		cur.Op = blockio.Read
		cur.Offset, cur.Size = off, 4096
		cur.Proc = 1
		cur.Deadline = time.Second
		s.Target().SubmitSLO(cur, done)
		eng.Run()
	}
	for i := 0; i < 64; i++ { // warm every pool on the path
		submit(int64(i+1) * (10 << 30))
	}
	return submit
}

// CFQSubmitDispatch measures the full MittCFQ accept round trip:
// admission, tolerable-table entry, CFQ dispatch, disk service, completion,
// and recycling of every pooled context — the per-IO cost of the busiest
// experiment path.
func CFQSubmitDispatch(b *testing.B) {
	submit := CFQSubmit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit(int64(i%900) << 30)
	}
}

// DurablePut returns the PutAdmission fixture: a func that runs one
// accepted durable put of key 7, with a 1 s deadline, to its ack on a
// MittCFQ disk stack whose memtable never flushes. Every pool on the path
// is already warm.
func DurablePut() func() {
	eng := mittos.NewEngine()
	s := mittos.NewStack(eng, mittos.StackConfig{
		Device: mittos.DeviceDisk, Scheduler: mittos.SchedulerCFQ, Mitt: true, Seed: 1})
	cfg := kv.DefaultConfig(0, 100<<30)
	cfg.MemtableCap = 1 << 30 // isolate the WAL path: never flush
	var ids blockio.IDGen
	st := kv.New(eng, cfg, s.Target(), &ids)
	done := func(error) {}
	put := func() {
		st.PutDurable(7, time.Second, done)
		eng.Run()
	}
	for i := 0; i < 64; i++ { // warm every pool on the path
		put()
	}
	return put
}

// PutAdmission measures the accepted durable-put round trip: WAL group
// assembly, SLO admission through MittCFQ, dispatch, completion, memtable
// apply, and the memory-latency ack — the write-path twin of
// CFQSubmitDispatch, and allocation-free in steady state.
func PutAdmission(b *testing.B) {
	put := DurablePut()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put()
	}
}

// SeekCost measures one profile lookup — the innermost operation of every
// SSTF-mirror replay step, a direct-index table.
func SeekCost(b *testing.B) {
	prof := disk.ProfileTwin(disk.DefaultConfig(), 42, disk.DefaultProfilerOptions())
	b.ReportAllocs()
	b.ResetTimer()
	var sum time.Duration
	for i := 0; i < b.N; i++ {
		sum += prof.SeekCost(int64(i%997) << 27)
	}
	sink = sum
}

// EngineThroughput measures raw event-loop throughput, the floor under
// every experiment's wall-clock time. It drives the fire-and-forget After
// path the device models use; with the engine's freelist warm, steady-state
// scheduling is allocation-free.
func EngineThroughput(b *testing.B) {
	eng := mittos.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(time.Microsecond, tick)
		}
	}
	eng.After(time.Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// EngineCancelHeavy measures hedged-style schedule-then-cancel churn: 4096
// request streams each re-arm a 30 ms timeout as a shared ~3 µs tick visits
// them round-robin (each stream every ~12 ms), so every timeout is
// cancelled long before it fires. This is the pattern Hedged/Tied/AppTO
// strategies and MittCFQ bumped-entry cancels put on the queue; the
// engine's timing wheel unlinks each cancelled event in O(1). internal/sim
// runs the same workload on its retained min-heap oracle for comparison.
func EngineCancelHeavy(b *testing.B) {
	const (
		streams = 4096
		tickGap = 3 * time.Microsecond
		timeout = 30 * time.Millisecond
	)
	eng := sim.NewEngine()
	nop := func() {}
	timeouts := make([]*sim.Event, streams)
	n, cur := 0, 0
	var tick func()
	tick = func() {
		s := cur
		cur = (cur + 1) % streams
		if timeouts[s] != nil {
			timeouts[s].Cancel()
		}
		timeouts[s] = eng.Schedule(timeout, nop)
		n++
		if n < b.N {
			eng.After(tickGap, tick)
		}
	}
	eng.After(tickGap, tick)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// EngineMixedHorizon interleaves µs-scale device events with ms- and
// multi-second deadlines — the shape of a real experiment leg, where disk
// completions share the queue with SLO timeouts and probe periods. The
// spread keeps several wheel levels occupied, so cascading is exercised.
// internal/sim runs the same workload on its retained min-heap oracle for
// comparison.
func EngineMixedHorizon(b *testing.B) {
	eng := sim.NewEngine()
	nop := func() {}
	i := 0
	var tick func()
	tick = func() {
		i++
		switch {
		case i%4096 == 0:
			eng.After(5*time.Second, nop)
		case i%256 == 0:
			eng.After(300*time.Millisecond, nop)
		case i%16 == 0:
			eng.After(4*time.Millisecond, nop)
		}
		if i < b.N {
			eng.After(2*time.Microsecond, tick)
		}
	}
	eng.After(2*time.Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}
