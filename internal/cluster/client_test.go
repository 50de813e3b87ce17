package cluster

import (
	"errors"
	"testing"
	"time"

	"mittos/internal/sim"
	"mittos/internal/ycsb"
)

// fakeStrategy completes every get after a fixed delay (and, optionally,
// stalls one specific request) — a pure client-loop harness with no cluster
// underneath.
type fakeStrategy struct {
	eng   *sim.Engine
	delay time.Duration
	err   error
	// stallAt, when > 0, makes the stallAt'th call take stall instead of
	// delay — the injected hiccup the CO-correction tests need.
	stallAt int
	stall   time.Duration
	calls   int
}

func (f *fakeStrategy) Name() string { return "fake" }

func (f *fakeStrategy) Get(key int64, onDone func(GetResult)) {
	f.calls++
	d := f.delay
	if f.stallAt > 0 && f.calls == f.stallAt {
		d = f.stall
	}
	err := f.err
	f.eng.After(d, func() { onDone(GetResult{Latency: d, Tries: 1, Err: err}) })
}

// countingPut counts puts without ever completing more than trivially.
type countingPut struct {
	eng   *sim.Engine
	calls int
	PutCounters
}

func (p *countingPut) Name() string { return "counting" }

func (p *countingPut) Put(key int64, onDone func(PutResult)) {
	p.calls++
	p.eng.After(time.Millisecond, func() { onDone(PutResult{Latency: time.Millisecond, Acks: 3}) })
}

func newLoopClient(eng *sim.Engine, cfg ClientConfig, strat Strategy, salt string) *Client {
	wl := ycsb.New(ycsb.DefaultConfig(1000), sim.NewRNG(7, salt+"-wl"))
	return NewClient(eng, cfg, strat, wl, sim.NewRNG(7, salt+"-cl"))
}

// TestPoissonArrivalsMeanAndDeterminism drives an open-loop Poisson client
// for a long window and checks the realized rate against 1/Interval, then
// replays the same seed and requires identical issue counts and latencies.
func TestPoissonArrivalsMeanAndDeterminism(t *testing.T) {
	run := func() (int, time.Duration) {
		eng := sim.NewEngine()
		strat := &fakeStrategy{eng: eng, delay: time.Millisecond}
		cfg := ClientConfig{Interval: 10 * time.Millisecond, Arrival: ArrivalPoisson, ScaleFactor: 1}
		cl := newLoopClient(eng, cfg, strat, "poisson")
		cl.Start()
		eng.RunFor(100 * time.Second)
		cl.Stop()
		eng.RunFor(time.Second)
		return cl.Issued(), cl.UserLatencies.Percentile(99)
	}
	issued, p99 := run()
	// 100s / 10ms mean gap = 10000 expected arrivals; a Poisson count's
	// stddev is √10000 = 100, so ±5% is a fifty-sigma safety margin against
	// bias while still catching a wrong mean (e.g. 2× or half).
	if issued < 9500 || issued > 10500 {
		t.Fatalf("Poisson client issued %d requests in 100s at 10ms mean; want ~10000", issued)
	}
	issued2, p992 := run()
	if issued != issued2 || p99 != p992 {
		t.Fatalf("same seed, different run: issued %d vs %d, p99 %v vs %v",
			issued, issued2, p99, p992)
	}
}

// recordingStrategy logs each get's issue instant — the probe the gap-
// distribution test watches arrivals through.
type recordingStrategy struct {
	eng   *sim.Engine
	times []sim.Time
}

func (r *recordingStrategy) Name() string { return "recording" }

func (r *recordingStrategy) Get(key int64, onDone func(GetResult)) {
	r.times = append(r.times, r.eng.Now())
	r.eng.After(time.Microsecond, func() { onDone(GetResult{Latency: time.Microsecond, Tries: 1}) })
}

// TestPoissonGapsVary guards against the degenerate "fixed interval
// relabeled Poisson" failure: the inter-arrival gaps must actually spread.
func TestPoissonGapsVary(t *testing.T) {
	eng := sim.NewEngine()
	strat := &recordingStrategy{eng: eng}
	cfg := ClientConfig{Interval: 10 * time.Millisecond, Arrival: ArrivalPoisson, ScaleFactor: 1}
	cl := newLoopClient(eng, cfg, strat, "gaps")
	cl.Start()
	eng.RunFor(10 * time.Second)
	cl.Stop()
	eng.RunFor(time.Second)
	gaps := map[time.Duration]bool{}
	for i := 1; i < len(strat.times); i++ {
		gaps[strat.times[i].Sub(strat.times[i-1])] = true
	}
	if len(gaps) < len(strat.times)/2 {
		t.Fatalf("%d arrivals produced only %d distinct gaps; exponential draws should almost never repeat",
			len(strat.times), len(gaps))
	}
}

// TestCOCorrectedSampleDivergesUnderStall pins the HdrHistogram-style
// correction: a closed-loop client stalled for 50 intervals must show the
// hidden wait in UserLatenciesCO while raw UserLatencies stays blind to it.
func TestCOCorrectedSampleDivergesUnderStall(t *testing.T) {
	eng := sim.NewEngine()
	interval := 10 * time.Millisecond
	strat := &fakeStrategy{eng: eng, delay: time.Millisecond, stallAt: 10, stall: 500 * time.Millisecond}
	cfg := ClientConfig{Interval: interval, Closed: true, CORecord: true, ScaleFactor: 1}
	cl := newLoopClient(eng, cfg, strat, "co")
	cl.Start()
	eng.RunFor(2 * time.Second)
	cl.Stop()
	eng.RunFor(time.Second)

	raw, co := cl.UserLatencies, cl.UserLatenciesCO
	if co == nil {
		t.Fatal("CORecord set but UserLatenciesCO is nil")
	}
	// The 500ms stall hides ~49 omitted issues behind one slow request;
	// the corrected sample must contain synthetic stand-ins for them.
	want := raw.N() + int(500*time.Millisecond/interval) - 1
	if co.N() < want-2 || co.N() > want+2 {
		t.Fatalf("CO sample has %d observations, raw %d; want raw+~49 = ~%d",
			co.N(), raw.N(), want)
	}
	// The synthetic samples drag the upper percentiles far above raw: the
	// raw p90 is the 1ms service time, while the corrected p90 sees the
	// decaying 490ms, 480ms, … ladder.
	if co.FractionAbove(100*time.Millisecond) <= raw.FractionAbove(100*time.Millisecond) {
		t.Fatalf("CO correction did not surface the stall: co frac>100ms = %v, raw = %v",
			co.FractionAbove(100*time.Millisecond), raw.FractionAbove(100*time.Millisecond))
	}
	if co.Max() != raw.Max() {
		t.Fatalf("correction must not invent a worse max: co %v, raw %v", co.Max(), raw.Max())
	}
}

// TestOpenLoopIgnoresCORecord pins that the twin sample is a closed-loop
// construct: open-loop latencies are CO-free already.
func TestOpenLoopIgnoresCORecord(t *testing.T) {
	eng := sim.NewEngine()
	strat := &fakeStrategy{eng: eng, delay: time.Millisecond}
	cfg := ClientConfig{Interval: 10 * time.Millisecond, CORecord: true, ScaleFactor: 1}
	cl := newLoopClient(eng, cfg, strat, "openco")
	if cl.UserLatenciesCO != nil {
		t.Fatal("open-loop client built a CO twin sample")
	}
}

// TestRMWFailedGetShortCircuits pins the workload-F chain bugfix: a failed
// read leg must fail the user op without issuing the follow-up put.
func TestRMWFailedGetShortCircuits(t *testing.T) {
	eng := sim.NewEngine()
	strat := &fakeStrategy{eng: eng, delay: time.Millisecond, err: errors.New("all replicas busy")}
	ps := &countingPut{eng: eng}
	wcfg := ycsb.DefaultConfig(1000)
	wcfg.ReadFraction = 0 // every op is a write → every op is an RMW chain
	wcfg.InsertFraction = 0
	wl := ycsb.New(wcfg, sim.NewRNG(7, "rmw-wl"))
	cfg := ClientConfig{Interval: 10 * time.Millisecond, ScaleFactor: 1}
	cl := NewClient(eng, cfg, strat, wl, sim.NewRNG(7, "rmw-cl"))
	cl.SetPutStrategy(ps, true)
	cl.Start()
	eng.RunFor(time.Second)
	cl.Stop()
	eng.RunFor(time.Second)

	if cl.Finished() == 0 {
		t.Fatal("client never finished a request")
	}
	if ps.calls != 0 {
		t.Fatalf("failed RMW gets issued %d follow-up puts; want 0", ps.calls)
	}
	if cl.Errors() != cl.Finished() {
		t.Fatalf("every RMW should fail: %d errors of %d finished", cl.Errors(), cl.Finished())
	}
	if cl.PutLatencies.N() != 0 {
		t.Fatalf("recorded %d bogus put latencies for failed gets", cl.PutLatencies.N())
	}
}

// TestRMWSuccessfulGetStillChains is the control for the short-circuit: a
// healthy read leg must still issue the put and complete cleanly.
func TestRMWSuccessfulGetStillChains(t *testing.T) {
	eng := sim.NewEngine()
	strat := &fakeStrategy{eng: eng, delay: time.Millisecond}
	ps := &countingPut{eng: eng}
	wcfg := ycsb.DefaultConfig(1000)
	wcfg.ReadFraction = 0
	wcfg.InsertFraction = 0
	wl := ycsb.New(wcfg, sim.NewRNG(7, "rmwok-wl"))
	cfg := ClientConfig{Interval: 10 * time.Millisecond, ScaleFactor: 1}
	cl := NewClient(eng, cfg, strat, wl, sim.NewRNG(7, "rmwok-cl"))
	cl.SetPutStrategy(ps, true)
	cl.Start()
	eng.RunFor(time.Second)
	cl.Stop()
	eng.RunFor(time.Second)

	if cl.Finished() == 0 || cl.Errors() != 0 {
		t.Fatalf("healthy RMW chain: %d finished, %d errors", cl.Finished(), cl.Errors())
	}
	if ps.calls != cl.Finished() {
		t.Fatalf("%d puts for %d finished RMWs", ps.calls, cl.Finished())
	}
	if cl.PutLatencies.N() != cl.Finished() {
		t.Fatalf("recorded %d put latencies for %d RMWs", cl.PutLatencies.N(), cl.Finished())
	}
}

// TestClosedLoopRequestsCap pins Requests-cap accounting in closed loop:
// exactly the cap is issued and finished, no trailing tick.
func TestClosedLoopRequestsCap(t *testing.T) {
	eng := sim.NewEngine()
	strat := &fakeStrategy{eng: eng, delay: time.Millisecond}
	cfg := ClientConfig{Interval: 5 * time.Millisecond, Closed: true, Requests: 7, ScaleFactor: 1}
	cl := newLoopClient(eng, cfg, strat, "cap")
	cl.Start()
	eng.RunFor(10 * time.Second)
	if cl.Issued() != 7 || cl.Finished() != 7 {
		t.Fatalf("Requests=7 closed loop issued %d, finished %d; want 7/7", cl.Issued(), cl.Finished())
	}
	if strat.calls != 7 {
		t.Fatalf("strategy saw %d gets; want 7", strat.calls)
	}
}

// TestJitterFracValidated pins the NewClient guard: out-of-range jitter
// fractions used to silently produce zero or negative gaps.
func TestJitterFracValidated(t *testing.T) {
	for _, frac := range []float64{-0.1, 1.01, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("JitterFrac=%v: expected panic", frac)
				}
			}()
			eng := sim.NewEngine()
			cfg := ClientConfig{Interval: time.Millisecond, JitterFrac: frac}
			newLoopClient(eng, cfg, &fakeStrategy{eng: eng}, "jitter")
		}()
	}
}

// TestFullJitterKeepsGapsPositive drives the boundary case the clamp
// exists for: JitterFrac = 1 can draw a zero gap, which must be floored
// rather than re-firing the tick at the same instant forever.
func TestFullJitterKeepsGapsPositive(t *testing.T) {
	eng := sim.NewEngine()
	strat := &fakeStrategy{eng: eng, delay: time.Microsecond}
	cfg := ClientConfig{Interval: time.Millisecond, JitterFrac: 1, ScaleFactor: 1}
	cl := newLoopClient(eng, cfg, strat, "fulljitter")
	cl.Start()
	eng.RunFor(time.Second)
	cl.Stop()
	eng.RunFor(time.Second)
	// Mean gap stays Interval under symmetric jitter: ~1000 issues in 1s.
	if cl.Issued() < 500 || cl.Issued() > 2000 {
		t.Fatalf("full-jitter client issued %d in 1s at 1ms mean; want ~1000", cl.Issued())
	}
}

// TestInflightGaugeHighWaterMark pins the shared gauge: a slow strategy
// under a fast open loop accumulates in-flight requests, and completions
// drain the current count back to zero.
func TestInflightGaugeHighWaterMark(t *testing.T) {
	eng := sim.NewEngine()
	strat := &fakeStrategy{eng: eng, delay: 50 * time.Millisecond}
	g := &InflightGauge{}
	cfg := ClientConfig{Interval: 10 * time.Millisecond, ScaleFactor: 1, Inflight: g}
	cl := newLoopClient(eng, cfg, strat, "gauge")
	cl.Start()
	eng.RunFor(time.Second)
	cl.Stop()
	eng.RunFor(time.Second)
	if g.Max < 4 {
		t.Fatalf("5× service/interval ratio should stack ~5 in flight; max = %d", g.Max)
	}
	if g.Cur != 0 {
		t.Fatalf("all requests drained but gauge still reads %d", g.Cur)
	}
}

// TestSLOAttainmentCounters pins the client-side verdict split around a
// known latency: every request takes exactly delay, so the counts are
// all-or-nothing on either side of the SLO.
func TestSLOAttainmentCounters(t *testing.T) {
	run := func(slo time.Duration) (met, missed int) {
		eng := sim.NewEngine()
		strat := &fakeStrategy{eng: eng, delay: 2 * time.Millisecond}
		cfg := ClientConfig{Interval: 10 * time.Millisecond, ScaleFactor: 1, SLO: slo}
		cl := newLoopClient(eng, cfg, strat, "slo")
		cl.Start()
		eng.RunFor(time.Second)
		cl.Stop()
		eng.RunFor(time.Second)
		return cl.SLOMet(), cl.SLOMissed()
	}
	met, missed := run(5 * time.Millisecond)
	if met == 0 || missed != 0 {
		t.Fatalf("2ms latencies under a 5ms SLO: met %d, missed %d", met, missed)
	}
	met, missed = run(time.Millisecond)
	if met != 0 || missed == 0 {
		t.Fatalf("2ms latencies under a 1ms SLO: met %d, missed %d", met, missed)
	}
}
