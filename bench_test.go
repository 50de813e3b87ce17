package mittos_test

// One benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the experiment end-to-end at quick scale (full
// scale via `go run ./cmd/mittbench -full`); ns/op therefore measures the
// cost of reproducing that result, and the reported custom metrics carry
// the experiment's headline numbers so regressions in the *shape* of the
// reproduction show up alongside performance regressions.
//
// The headline benchmarks — the ones `mittbench -bench-json` records — are
// one-line calls into internal/benchkit, which holds their only bodies.

import (
	"fmt"
	"testing"
	"time"

	"mittos"
	"mittos/internal/benchkit"
	"mittos/internal/experiments"
	"mittos/internal/stats"
)

// BenchmarkTable1 regenerates Table 1 (the NoSQL tail-tolerance survey).
func BenchmarkTable1(b *testing.B) {
	benchkit.Experiment(b, "table1")
}

// BenchmarkFig3 regenerates Figure 3 (EC2 millisecond dynamism).
func BenchmarkFig3(b *testing.B) {
	var pmf1 float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(experiments.QuickFig3Options())
		pmf1 = res.BusyPMF[1]
	}
	b.ReportMetric(pmf1, "P(1-busy)")
}

// BenchmarkFig4 regenerates Figure 4 (the four microbenchmarks).
func BenchmarkFig4(b *testing.B) { benchkit.Fig4(b) }

// BenchmarkFig4Metrics is BenchmarkFig4 with the observability layer fully
// on (counters, histograms, unlimited span tracing) — the recording
// overhead budget is <=15% over the metrics-off run.
func BenchmarkFig4Metrics(b *testing.B) {
	opt := experiments.QuickFig4Options()
	opt.Duration = 4 * time.Second
	opt.Metrics = true
	opt.TraceIOs = -1
	var res *mittos.ExperimentResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig4(opt)
	}
	if len(res.Metrics) == 0 {
		b.Fatal("metrics enabled but no snapshots attached")
	}
	benchkit.ReportTailMetrics(b, res, "CFQ-LowPrioNoise/MittOS", "mitt")
}

// BenchmarkFig5 regenerates Figure 5 (MittCFQ vs Hedged/Clone/AppTO).
func BenchmarkFig5(b *testing.B) {
	res := benchkit.Experiment(b, "fig5")
	benchkit.ReportTailMetrics(b, res, "MittCFQ", "mitt")
	benchkit.ReportTailMetrics(b, res, "Hedged", "hedged")
}

// BenchmarkFig6 regenerates Figure 6 (tail amplified by scale).
func BenchmarkFig6(b *testing.B) {
	res := benchkit.Experiment(b, "fig6")
	benchkit.ReportTailMetrics(b, res, "MittCFQ-SF10", "mitt-sf10")
	benchkit.ReportTailMetrics(b, res, "Hedged-SF10", "hedged-sf10")
}

// BenchmarkFig7 regenerates Figure 7 (MittCache vs Hedged).
func BenchmarkFig7(b *testing.B) {
	res := benchkit.Experiment(b, "fig7")
	benchkit.ReportTailMetrics(b, res, "MittCache-SF1", "mitt")
	benchkit.ReportTailMetrics(b, res, "Hedged-SF1", "hedged")
}

// BenchmarkFig8 regenerates Figure 8 (hedging backfires on a shared-CPU
// SSD box).
func BenchmarkFig8(b *testing.B) {
	res := benchkit.Experiment(b, "fig8")
	benchkit.ReportTailMetrics(b, res, "MittSSD", "mitt")
	benchkit.ReportTailMetrics(b, res, "Hedged", "hedged")
}

// BenchmarkFig9 regenerates Figure 9 (prediction accuracy on five traces).
func BenchmarkFig9(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		_, rows := experiments.Fig9(experiments.QuickFig9Options())
		worst = 0
		for _, r := range rows {
			if r.Layer != "Naive" && r.Acc.InaccuracyRate() > worst {
				worst = r.Acc.InaccuracyRate()
			}
		}
	}
	b.ReportMetric(100*worst, "worst-inacc-%")
}

// BenchmarkFig10 regenerates Figure 10 (sensitivity to injected error).
func BenchmarkFig10(b *testing.B) {
	res := benchkit.Experiment(b, "fig10")
	benchkit.ReportTailMetrics(b, res, "NoError", "noerror")
	benchkit.ReportTailMetrics(b, res, "FalsePos-100%", "fp100")
}

// BenchmarkFig11 regenerates Figure 11 (macrobenchmark workload mix).
func BenchmarkFig11(b *testing.B) {
	res := benchkit.Experiment(b, "fig11")
	benchkit.ReportTailMetrics(b, res, "MittCFQ", "mitt")
	benchkit.ReportTailMetrics(b, res, "Hedged", "hedged")
}

// BenchmarkFig12 regenerates Figure 12 (C3 vs sub-second burstiness).
func BenchmarkFig12(b *testing.B) {
	res := benchkit.Experiment(b, "fig12")
	benchkit.ReportTailMetrics(b, res, "C3/1B2F-1sec", "c3-fast")
	benchkit.ReportTailMetrics(b, res, "C3/1B2F-5sec", "c3-slow")
}

// BenchmarkFig13 regenerates Figure 13 (LevelDB+Riak two-level EBUSY).
func BenchmarkFig13(b *testing.B) {
	res := benchkit.Experiment(b, "fig13")
	benchkit.ReportTailMetrics(b, res, "MittCFQ", "mitt")
	benchkit.ReportTailMetrics(b, res, "Base", "base")
}

// BenchmarkAllInOne regenerates §7.8.5 (three Mitt layers co-existing).
func BenchmarkAllInOne(b *testing.B) {
	res := benchkit.Experiment(b, "allinone")
	benchkit.ReportTailMetrics(b, res, "cache-user(0.2ms)/Mitt", "cache-mitt")
	benchkit.ReportTailMetrics(b, res, "cache-user(0.2ms)/Base", "cache-base")
}

// BenchmarkWrites regenerates §7.8.6 (write latencies unaffected by noise).
func BenchmarkWrites(b *testing.B) {
	res := benchkit.Experiment(b, "writes")
	benchkit.ReportTailMetrics(b, res, "Base", "noisy")
	benchkit.ReportTailMetrics(b, res, "NoNoise", "clean")
}

// BenchmarkFailslow regenerates the graceful-degradation matrix (every
// strategy through the composite fault scenario).
func BenchmarkFailslow(b *testing.B) {
	res := benchkit.Experiment(b, "failslow")
	benchkit.ReportTailMetrics(b, res, "MittOS", "mitt")
	benchkit.ReportTailMetrics(b, res, "Base", "base")
}

// BenchmarkYCSBMix regenerates the YCSB A/B/F mixed-workload matrix.
func BenchmarkYCSBMix(b *testing.B) { benchkit.YCSBMix(b) }

// BenchmarkLoadSweep regenerates the offered-load sweep.
func BenchmarkLoadSweep(b *testing.B) { benchkit.LoadSweep(b) }

// BenchmarkPutAdmission measures the accepted durable-put round trip.
func BenchmarkPutAdmission(b *testing.B) { benchkit.PutAdmission(b) }

// BenchmarkAdmissionDecision measures one MittOS admission decision, the
// analogue of the paper's <5µs syscall claim.
func BenchmarkAdmissionDecision(b *testing.B) { benchkit.AdmissionDecision(b) }

// BenchmarkPredictWaitCFQ measures MittCFQ's admission prediction as the
// number of queued process nodes grows.
func BenchmarkPredictWaitCFQ(b *testing.B) {
	for _, procs := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), benchkit.PredictWaitCFQ(procs))
	}
}

// BenchmarkCFQSubmitDispatch measures the full MittCFQ accept round trip.
func BenchmarkCFQSubmitDispatch(b *testing.B) { benchkit.CFQSubmitDispatch(b) }

// BenchmarkSeekCost measures one disk-profile seek lookup.
func BenchmarkSeekCost(b *testing.B) { benchkit.SeekCost(b) }

// BenchmarkEngineThroughput measures raw event-loop throughput.
func BenchmarkEngineThroughput(b *testing.B) { benchkit.EngineThroughput(b) }

// BenchmarkEngineCancelHeavy measures schedule-then-cancel churn on the
// timing wheel; `go test -bench . ./internal/sim` runs the same workload on
// the min-heap oracle.
func BenchmarkEngineCancelHeavy(b *testing.B) { b.Run("wheel", benchkit.EngineCancelHeavy) }

// BenchmarkEngineMixedHorizon interleaves µs device events with ms and
// multi-second deadlines on the timing wheel; `go test -bench .
// ./internal/sim` runs the same workload on the min-heap oracle.
func BenchmarkEngineMixedHorizon(b *testing.B) { b.Run("wheel", benchkit.EngineMixedHorizon) }

// BenchmarkMittSMR measures the §8.2 SMR extension: deadline probes under
// write churn with band cleaning, reporting the accepted-read tail and the
// clean-rejection count.
func BenchmarkMittSMR(b *testing.B) {
	var worstMs float64
	var rejects uint64
	for i := 0; i < b.N; i++ {
		eng := mittos.NewEngine()
		cfg := mittos.DefaultSMRConfig()
		cfg.CacheBytes = 128 << 20
		mitt, drive := mittos.NewSMRStack(eng, cfg, 1)
		_ = drive
		wrng := mittos.NewRNG(2, "writes")
		prng := mittos.NewRNG(3, "probes")
		var ids uint64
		var worst time.Duration
		eng.NewTicker(15*time.Millisecond, func() {
			ids++
			req := &mittos.Request{ID: ids, Op: mittos.OpWrite, Offset: wrng.Int63n(900<<30) &^ 4095, Size: 2 << 20}
			mitt.SubmitSLO(req, func(error) {})
		})
		eng.NewTicker(20*time.Millisecond, func() {
			ids++
			start := eng.Now()
			req := &mittos.Request{ID: ids, Op: mittos.OpRead, Offset: prng.Int63n(900 << 30), Size: 4096,
				Deadline: 25 * time.Millisecond}
			mitt.SubmitSLO(req, func(err error) {
				if err == nil {
					if lat := eng.Now().Sub(start); lat > worst {
						worst = lat
					}
				}
			})
		})
		eng.RunFor(30 * time.Second)
		worstMs = float64(worst) / 1e6
		rejects = mitt.RejectedByClean()
	}
	b.ReportMetric(worstMs, "worst-accepted-ms")
	b.ReportMetric(float64(rejects), "clean-rejects")
}

// BenchmarkMittVMM measures the §8.2 VMM extension: frozen-VM rejection vs
// parking on a contended hypervisor.
func BenchmarkMittVMM(b *testing.B) {
	var p95ms float64
	for i := 0; i < b.N; i++ {
		eng := mittos.NewEngine()
		host := mittos.NewVMMHost(eng, mittos.DefaultVMMConfig(), []*mittos.GuestVM{
			{ID: 0, CPUBound: true}, {ID: 1, CPUBound: true}, {ID: 2, CPUBound: true},
		})
		idle := mittos.NewVMMHost(eng, mittos.DefaultVMMConfig(), []*mittos.GuestVM{{ID: 0}})
		lat := newBenchSample()
		rng := mittos.NewRNG(9, "vmm")
		eng.NewTicker(5*time.Millisecond, func() {
			start := eng.Now()
			host.Deliver(rng.Intn(3), 10*time.Millisecond, func(err error) {
				if mittos.IsBusy(err) {
					idle.Deliver(0, 0, func(error) { lat.Add(eng.Now().Sub(start)) })
					return
				}
				lat.Add(eng.Now().Sub(start))
			})
		})
		eng.RunFor(20 * time.Second)
		p95ms = float64(lat.Percentile(95)) / 1e6
	}
	b.ReportMetric(p95ms, "mitt-p95-ms")
}

// BenchmarkThroughputSLO measures the §8.1 token-bucket admission cost.
func BenchmarkThroughputSLO(b *testing.B) {
	eng := mittos.NewEngine()
	stack := mittos.NewStack(eng, mittos.StackConfig{Device: mittos.DeviceDisk, Mitt: true, Seed: 1})
	ts := mittos.NewThroughputSLO(eng, stack.Target(), mittos.DefaultOptions())
	ts.SetContract(1, 1e9, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &mittos.Request{ID: uint64(i + 1), Op: mittos.OpRead, Offset: int64(i%1000) * (1 << 20),
			Size: 4096, Proc: 1}
		ts.SubmitSLO(req, func(error) {})
		if i%1024 == 0 {
			eng.Run() // drain periodically so queues stay bounded
		}
	}
	eng.Run()
}

// newBenchSample wraps internal/stats.Sample, which sorts once per query
// batch — the hand-rolled insertion sort it replaced was O(n²) and
// quadratic at full-scale sample sizes.
func newBenchSample() *benchSample { return &benchSample{s: stats.NewSample(1 << 12)} }

type benchSample struct{ s *stats.Sample }

func (b *benchSample) Add(d time.Duration)                { b.s.Add(d) }
func (b *benchSample) Percentile(p float64) time.Duration { return b.s.Percentile(p) }
