package experiments

import (
	"fmt"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/metrics"
	"mittos/internal/sim"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// defaultSweepRates are the offered-load multipliers (× measured saturation)
// the sweep visits when Options.Rates is empty: well under the knee, at the
// knee, and past it, so the tables show the whole hockey stick.
var defaultSweepRates = []float64{0.2, 0.5, 0.8, 0.95, 1.2, 1.5}

// SweepPoint is one (path, strategy, offered-rate) cell of the loadsweep
// matrix — the machine-readable twin of the rendered tables, dumped by
// mittbench -sweep-json.
type SweepPoint struct {
	// Path is "get" or "put".
	Path string `json:"path"`
	// Strategy is Base, AppTO, Hedged, or MittOS.
	Strategy string `json:"strategy"`
	// RateMult is the offered-load multiplier (× measured saturation).
	RateMult float64 `json:"rate_mult"`
	// OfferedPerSec is the aggregate target arrival rate.
	OfferedPerSec float64 `json:"offered_per_sec"`
	// DonePerSec is completed user requests over the measured window.
	DonePerSec float64 `json:"done_per_sec"`
	// GoodputPerSec counts only completions at or under the deadline.
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// AttainPct is the fraction of finished requests meeting the SLO.
	AttainPct float64 `json:"attain_pct"`
	// P50Ns/P95Ns/P99Ns are user-latency percentiles in nanoseconds.
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
	// InflightHWM is the high-water mark of concurrently outstanding user
	// requests across the leg's client fleet.
	InflightHWM int `json:"inflight_hwm"`
	// Busy counts fast EBUSY refusals the strategy heard (MittOS failovers
	// on the read path, rejected put copies on the write path).
	Busy uint64 `json:"busy"`
	// Wasted counts IOs/durable writes executed past their usefulness
	// (abandoned timeout attempts, losing hedges, post-verdict put copies).
	Wasted uint64 `json:"wasted"`
	// Errors counts failed user requests; Finished counts completed ones.
	Errors   int `json:"errors"`
	Finished int `json:"finished"`
}

// sweepStratDiag pulls the overload diagnostics off a read strategy.
func sweepStratDiag(s cluster.Strategy) (busy, wasted uint64) {
	switch t := s.(type) {
	case *cluster.TimeoutStrategy:
		return 0, t.WastedIOs
	case *cluster.HedgedStrategy:
		return 0, t.WastedIOs
	case *cluster.MittOSStrategy:
		// No crashes in this experiment, so every failover is an EBUSY
		// fast reject.
		return t.Failovers, 0
	}
	return 0, 0
}

// sweepOut is one sweep leg's harvest.
type sweepOut struct {
	sample      *stats.Sample
	finished    int
	errors      int
	met, missed int
	inflightHWM int
	busy        uint64
	wasted      uint64
	snap        *metrics.Snapshot
}

// startSweepClients launches opt.Clients clients under an explicit loop
// config, all sharing one in-flight gauge. A non-nil put strategy makes the
// clients write-only (the workload config must then draw only updates);
// otherwise they are read-only and draw keys via NextKey. Streams are salted
// per leg so every (strategy, rate) cell sees an identical workload.
func (f *fleet) startSweepClients(opt Options, ccfg cluster.ClientConfig,
	wcfg ycsb.Config, strat cluster.Strategy, ps cluster.PutStrategy,
	salt string) ([]*cluster.Client, *cluster.InflightGauge) {
	gauge := &cluster.InflightGauge{}
	ccfg.Inflight = gauge
	if f.arena != nil {
		ccfg.Bufs = f.arena.bufs
	}
	var clients []*cluster.Client
	for i := 0; i < opt.Clients; i++ {
		if f.metrics != nil {
			// Client-side verdicts have no home node; spread them round-
			// robin so fleet totals are right and no counter hot-spots.
			ccfg.Rec = f.metrics.Node(i % opt.Nodes)
		}
		wl := ycsb.New(wcfg, sim.NewRNG(opt.Seed, fmt.Sprintf("%s-wl-%d", salt, i)))
		cl := cluster.NewClient(f.eng, ccfg, strat, wl, sim.NewRNG(opt.Seed, fmt.Sprintf("%s-cl-%d", salt, i)))
		if ps != nil {
			cl.SetPutStrategy(ps, false)
		}
		cl.Start()
		clients = append(clients, cl)
	}
	if f.arena != nil {
		f.arena.adoptClients(clients)
	}
	return clients, gauge
}

// putOnlyConfig is the write-path sweep workload: every op is an update of
// an existing key, zipfian like the YCSB mixes.
func putOnlyConfig(keys int64) ycsb.Config {
	cfg := ycsb.DefaultConfig(keys)
	cfg.ReadFraction = 0
	cfg.InsertFraction = 0
	cfg.Dist = ycsb.Zipfian
	return cfg
}

// sweepDrain is how long a sweep leg keeps the engine running after the
// clients stop. It is deliberately bounded: requests still queued when it
// expires never finish, so past saturation done/s plateaus at capacity
// instead of crediting an arbitrarily long tail.
const sweepDrain = 10 * time.Second

// LoadSweep sweeps offered load from well under to past measured saturation
// across the full read and write strategy matrices — the hockey-stick view
// of the paper's claim that fast rejection keeps tails bounded as load
// approaches saturation. Calibration first measures the per-path p95 knobs
// (deadline/timeout/hedge trigger, §7.2) and the fleet's saturation
// throughput (closed-loop Base clients with near-zero think time); the
// sweep then offers each rate multiple through open-loop Poisson clients
// and reports throughput, tail latencies, SLO attainment, goodput, and
// overload diagnostics per (strategy, rate) cell.
func LoadSweep(opt Options) *Result {
	res := &Result{ID: "loadsweep", Title: "offered-load sweep: SLO attainment and goodput vs saturation (§7.2, §7.8.6)"}

	rates := opt.Rates
	if len(rates) == 0 {
		rates = defaultSweepRates
	}

	// Stage 1: calibration. Three independent legs — the p95 knob run (the
	// noisy Base baseline every strategy's deadline/timeout/hedge comes
	// from) and one closed-loop saturation probe per path. The saturation
	// probes drive ~3 outstanding requests per node with near-zero think
	// time: the sustained completion rate is the knee the sweep's rate
	// multipliers are anchored to.
	var getP95, putP95 time.Duration
	var satGet, satPut float64
	satOpt := opt
	satOpt.Clients = 3 * opt.Nodes
	satCfg := cluster.ClientConfig{
		Interval:    time.Microsecond,
		ScaleFactor: 1,
		Closed:      true,
		ExpectedOps: int(opt.Duration / (2 * time.Millisecond)),
	}
	satRate := func(clients []*cluster.Client, d time.Duration) float64 {
		finished := 0
		for _, cl := range clients {
			finished += cl.Finished()
		}
		return float64(finished) / d.Seconds()
	}
	runLegs(opt.Workers, legs{
		func(a *legArena) {
			f := a.newFleet(opt, fleetDisk, false, "lsw-knobs")
			f.addEC2DiskNoise(opt)
			strat := &cluster.BaseStrategy{C: f.c}
			ps := &cluster.BasePut{C: f.c}
			clients := f.startMixedClients(opt, strat, ps, ycsbMixWorkloads[0].config(opt.Keys), false)
			f.eng.RunFor(opt.Duration)
			for _, cl := range clients {
				cl.Stop()
			}
			f.stopNoise()
			f.eng.RunFor(5 * time.Second)
			io, _ := collectClients(clients)
			puts := collectPuts(clients)
			getP95 = io.Percentile(95)
			putP95 = puts.Percentile(95)
		},
		func(a *legArena) {
			f := a.newFleet(satOpt, fleetDisk, false, "lsw-satget")
			f.addEC2DiskNoise(satOpt)
			clients, _ := f.startSweepClients(satOpt, satCfg,
				ycsb.DefaultConfig(opt.Keys), &cluster.BaseStrategy{C: f.c}, nil, "lsw-satget")
			f.eng.RunFor(opt.Duration)
			for _, cl := range clients {
				cl.Stop()
			}
			f.stopNoise()
			f.eng.RunFor(5 * time.Second)
			satGet = satRate(clients, opt.Duration)
		},
		func(a *legArena) {
			f := a.newFleet(satOpt, fleetDisk, false, "lsw-satput")
			f.addEC2DiskNoise(satOpt)
			clients, _ := f.startSweepClients(satOpt, satCfg,
				putOnlyConfig(opt.Keys), &cluster.BaseStrategy{C: f.c},
				&cluster.BasePut{C: f.c}, "lsw-satput")
			f.eng.RunFor(opt.Duration)
			for _, cl := range clients {
				cl.Stop()
			}
			f.stopNoise()
			f.eng.RunFor(5 * time.Second)
			satPut = satRate(clients, opt.Duration)
		},
	})
	// The user-level SLO the attainment columns count against is 2× the
	// OS-level deadline: the paper's guidance (§4) is to hand the OS a
	// fraction of the end-to-end budget so a rejected request has headroom
	// for a failover round before the user notices.
	getSLO, putSLO := 2*getP95, 2*putP95
	res.Notes = append(res.Notes, fmt.Sprintf(
		"knobs from noisy Base baseline: get p95 = %v, put p95 = %v (deadline, timeout, and hedge trigger per path); "+
			"user SLO = 2× the deadline (§4: leave failover headroom inside the user budget)",
		getP95, putP95))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"measured saturation (closed loop, %d clients, ~zero think): gets %.0f ops/s, durable puts %.0f ops/s; offered load = rate × saturation over %d open-loop Poisson clients",
		satOpt.Clients, satGet, satPut, opt.Clients))

	strategies := []struct {
		name string
		mitt bool
		mk   func(c *cluster.Cluster) (cluster.Strategy, cluster.PutStrategy)
	}{
		{"Base", false, func(c *cluster.Cluster) (cluster.Strategy, cluster.PutStrategy) {
			return &cluster.BaseStrategy{C: c}, &cluster.BasePut{C: c}
		}},
		{"AppTO", false, func(c *cluster.Cluster) (cluster.Strategy, cluster.PutStrategy) {
			return &cluster.TimeoutStrategy{C: c, TO: getP95},
				&cluster.TimeoutPut{C: c, TO: putP95}
		}},
		{"Hedged", false, func(c *cluster.Cluster) (cluster.Strategy, cluster.PutStrategy) {
			return &cluster.HedgedStrategy{C: c, HedgeAfter: getP95},
				&cluster.HedgedPut{C: c, HedgeAfter: putP95}
		}},
		{"MittOS", true, func(c *cluster.Cluster) (cluster.Strategy, cluster.PutStrategy) {
			return &cluster.MittOSStrategy{C: c, Deadline: getP95, UseWaitHint: true},
				&cluster.MittOSPut{C: c, Deadline: putP95, UseWaitHint: true}
		}},
	}
	paths := []struct {
		name string
		sat  *float64
		slo  *time.Duration
	}{
		{"get", &satGet, &getSLO},
		{"put", &satPut, &putSLO},
	}

	// Stage 2: the sweep proper — one hermetic leg per (path, strategy,
	// rate) cell, every cell facing the identical noise timeline and
	// workload streams for its leg salt.
	nCells := len(paths) * len(strategies) * len(rates)
	outs := make([]sweepOut, nCells)
	var ls legs
	idx := 0
	for pi, path := range paths {
		for _, st := range strategies {
			for _, m := range rates {
				i, pi, path, st, m := idx, pi, path, st, m
				idx++
				ls.add(func(a *legArena) {
					sat := *path.sat
					if sat <= 0 {
						return
					}
					salt := fmt.Sprintf("lsw-%s-%s-%.2f", path.name, st.name, m)
					f := a.newFleet(opt, fleetDisk, st.mitt, salt)
					f.addEC2DiskNoise(opt)
					strat, ps := st.mk(f.c)
					// Split the aggregate offered rate evenly across the
					// client fleet; superposed Poisson arrivals are again
					// Poisson at the aggregate rate.
					iv := time.Duration(float64(opt.Clients) / (m * sat) * float64(time.Second))
					if iv <= 0 {
						iv = time.Nanosecond
					}
					ccfg := cluster.ClientConfig{
						Interval:    iv,
						Arrival:     cluster.ArrivalPoisson,
						ScaleFactor: 1,
						SLO:         *path.slo,
						ExpectedOps: int(opt.Duration/iv) + 1,
					}
					wcfg := ycsb.DefaultConfig(opt.Keys)
					if pi == 1 {
						wcfg = putOnlyConfig(opt.Keys)
					} else {
						ps = nil
					}
					clients, gauge := f.startSweepClients(opt, ccfg, wcfg, strat, ps, salt)
					f.eng.RunFor(opt.Duration)
					for _, cl := range clients {
						cl.Stop()
					}
					f.stopNoise()
					f.eng.RunFor(sweepDrain)
					_, user := collectClients(clients)
					o := sweepOut{sample: user, inflightHWM: gauge.Max}
					for _, cl := range clients {
						o.finished += cl.Finished()
						o.errors += cl.Errors()
						o.met += cl.SLOMet()
						o.missed += cl.SLOMissed()
					}
					if pi == 1 {
						pc := ps.Counters()
						o.busy, o.wasted = pc.Busy, pc.WastedWrites
					} else {
						o.busy, o.wasted = sweepStratDiag(strat)
					}
					o.snap = f.snapshot("loadsweep/" + path.name + "/" + st.name + fmt.Sprintf("/%.2fx", m))
					outs[i] = o
				})
			}
		}
	}
	runLegs(opt.Workers, ls)

	// The headline comparison rate: the highest multiplier still under
	// saturation (the knee's near side), where fast rejection should win
	// without the excuse that the system was overloaded anyway.
	knee := 0.0
	for _, m := range rates {
		if m < 1.0 && m > knee {
			knee = m
		}
	}
	if knee == 0 {
		knee = rates[len(rates)-1]
	}

	idx = 0
	for _, path := range paths {
		tb := &stats.Table{Header: []string{"strategy", "rate", "offered/s", "done/s",
			"goodput/s", "attain", "p50", "p95", "p99", "maxinfl", "busy", "wasted", "errs"}}
		for _, st := range strategies {
			for _, m := range rates {
				o := outs[idx]
				idx++
				offered := m * *path.sat
				attain := 0.0
				if n := o.met + o.missed; n > 0 {
					attain = 100 * float64(o.met) / float64(n)
				}
				tb.AddRow(st.name,
					fmt.Sprintf("%.2fx", m),
					fmt.Sprintf("%.0f", offered),
					fmt.Sprintf("%.0f", float64(o.finished)/opt.Duration.Seconds()),
					fmt.Sprintf("%.0f", float64(o.met)/opt.Duration.Seconds()),
					stats.FormatPct(attain),
					stats.FormatDuration(o.sample.Percentile(50)),
					stats.FormatDuration(o.sample.Percentile(95)),
					stats.FormatDuration(o.sample.Percentile(99)),
					fmt.Sprint(o.inflightHWM),
					fmt.Sprint(o.busy),
					fmt.Sprint(o.wasted),
					fmt.Sprint(o.errors),
				)
				if m == knee {
					res.Series = append(res.Series, Series{
						Name:   fmt.Sprintf("%s/%s@%.2fx", path.name, st.name, m),
						Sample: o.sample,
					})
				}
				if o.snap != nil {
					res.Metrics = append(res.Metrics, o.snap)
				}
				res.Sweep = append(res.Sweep, SweepPoint{
					Path:          path.name,
					Strategy:      st.name,
					RateMult:      m,
					OfferedPerSec: offered,
					DonePerSec:    float64(o.finished) / opt.Duration.Seconds(),
					GoodputPerSec: float64(o.met) / opt.Duration.Seconds(),
					AttainPct:     attain,
					P50Ns:         int64(o.sample.Percentile(50)),
					P95Ns:         int64(o.sample.Percentile(95)),
					P99Ns:         int64(o.sample.Percentile(99)),
					InflightHWM:   o.inflightHWM,
					Busy:          o.busy,
					Wasted:        o.wasted,
					Errors:        o.errors,
					Finished:      o.finished,
				})
			}
		}
		res.Tables = append(res.Tables, tb)
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"tables: gets then durable puts; attain = %% of finished requests at or under the per-path user SLO, "+
			"goodput = SLO-met completions per second, maxinfl = in-flight high-water mark, "+
			"busy = fast EBUSY rejections heard, wasted = IOs/writes executed past usefulness; "+
			"done/s counts completions within the run + %v drain, so past saturation it plateaus at capacity", sweepDrain))
	return res
}
