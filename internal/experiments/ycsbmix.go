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

// ycsbMixWorkload is one YCSB mix the experiment drives: the canonical A
// (update-heavy), B (read-mostly), and F (read-modify-write) shapes, all
// zipfian like the original benchmark.
type ycsbMixWorkload struct {
	name         string
	readFraction float64
	rmw          bool
}

var ycsbMixWorkloads = []ycsbMixWorkload{
	{name: "A", readFraction: 0.5},
	{name: "B", readFraction: 0.95},
	{name: "F", readFraction: 0.5, rmw: true},
}

func (w ycsbMixWorkload) config(keys int64) ycsb.Config {
	cfg := ycsb.DefaultConfig(keys)
	cfg.ReadFraction = w.readFraction
	cfg.Dist = ycsb.Zipfian
	cfg.InsertFraction = 0 // A/B/F writes are updates of existing keys
	return cfg
}

// startMixedClients launches opt.Clients mixed read/write YCSB clients: the
// workload mix decides per op whether the read strategy or the put strategy
// fires (rmw chains both). Streams are salted "ymix" so the mixes are
// identical across every strategy leg but uncorrelated with the read-only
// experiments.
func (f *fleet) startMixedClients(opt Options, strat cluster.Strategy,
	ps cluster.PutStrategy, wcfg ycsb.Config, rmw bool) []*cluster.Client {
	ccfg := cluster.DefaultClientConfig()
	ccfg.Interval = opt.Interval
	ccfg.ScaleFactor = 1
	if opt.Interval > 0 {
		ccfg.ExpectedOps = int(opt.Duration/opt.Interval) + 1
	}
	if f.arena != nil {
		ccfg.Bufs = f.arena.bufs
	}
	var clients []*cluster.Client
	for i := 0; i < opt.Clients; i++ {
		wl := ycsb.New(wcfg, sim.NewRNG(opt.Seed, fmt.Sprintf("ymix-wl-%d", i)))
		cl := cluster.NewClient(f.eng, ccfg, strat, wl, sim.NewRNG(opt.Seed, fmt.Sprintf("ymix-cl-%d", i)))
		cl.SetPutStrategy(ps, rmw)
		cl.Start()
		clients = append(clients, cl)
	}
	if f.arena != nil {
		f.arena.adoptClients(clients)
	}
	return clients
}

// collectPuts merges the clients' put samples, pre-sized to the exact total.
func collectPuts(clients []*cluster.Client) *stats.Sample {
	n := 0
	for _, cl := range clients {
		n += cl.PutLatencies.N()
	}
	out := stats.NewSample(n)
	for _, cl := range clients {
		out.Merge(cl.PutLatencies)
	}
	return out
}

// YCSBMix drives YCSB A/B/F read/write mixes through the full read+write
// strategy matrix under EC2 disk noise: every get goes through the read
// strategy, every put through its write-side mirror (quorum-replicated,
// W = majority), and MittOS legs carry the deadline SLO on both paths. The
// put-side comparison is the experiment's point: a contended replica holds
// Base's quorum hostage for the full queue wait, AppTO/Hedged pay for ring
// handoffs with duplicated durable writes, while MittOSPut hears EBUSY from
// the WAL admission in one RTT and reassembles the quorum elsewhere.
func YCSBMix(opt Options) *Result {
	res := &Result{ID: "ycsbmix", Title: "YCSB A/B/F mixes: SLO-aware writes vs Base/AppTO/Hedged (§5, §7.2)"}

	// Stage 1: a noisy Base/BasePut workload-A run sets the knobs — read
	// deadline/timeout/hedge = get p95, write deadline/timeout/hedge =
	// put p95 (the §7.2 "use the p95 latency" rule applied per path).
	var getP95, putP95 time.Duration
	runLegs(opt.Workers, legs{func(a *legArena) {
		f := a.newFleet(opt, fleetDisk, false, "ymix-baseline")
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
	}})
	res.Notes = append(res.Notes, fmt.Sprintf(
		"knobs from noisy Base baseline: get p95 = %v, put p95 = %v", getP95, putP95))

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

	type legOut struct {
		io, puts *stats.Sample
		finished int
		errors   int
		counters cluster.PutCounters
		snap     *metrics.Snapshot
	}
	nLegs := len(ycsbMixWorkloads) * len(strategies)
	outs := make([]legOut, nLegs)
	var ls legs
	for wi, wl := range ycsbMixWorkloads {
		for si, st := range strategies {
			i, wl, st := wi*len(strategies)+si, wl, st
			ls.add(func(a *legArena) {
				f := a.newFleet(opt, fleetDisk, st.mitt, "ymix-"+wl.name+"-"+st.name)
				f.addEC2DiskNoise(opt)
				strat, ps := st.mk(f.c)
				clients := f.startMixedClients(opt, strat, ps, wl.config(opt.Keys), wl.rmw)
				f.eng.RunFor(opt.Duration)
				for _, cl := range clients {
					cl.Stop()
				}
				f.stopNoise()
				f.eng.RunFor(5 * time.Second) // drain in-flight quorums
				io, _ := collectClients(clients)
				o := legOut{io: io, puts: collectPuts(clients)}
				o.counters = *ps.Counters()
				for _, cl := range clients {
					o.finished += cl.Finished()
					o.errors += cl.Errors()
				}
				o.snap = f.snapshot("ycsbmix/" + wl.name + "/" + st.name)
				outs[i] = o
			})
		}
	}
	runLegs(opt.Workers, ls)

	for wi, wl := range ycsbMixWorkloads {
		tb := &stats.Table{Header: []string{"strategy", "finished", "errors", "err%",
			"get p95", "get p99", "put p95", "put p99", "copies", "wasted wr"}}
		for si, st := range strategies {
			o := outs[wi*len(strategies)+si]
			res.Series = append(res.Series, Series{Name: wl.name + "/" + st.name + " put", Sample: o.puts})
			errPct := 0.0
			if o.finished > 0 {
				errPct = 100 * float64(o.errors) / float64(o.finished)
			}
			tb.AddRow(st.name,
				fmt.Sprint(o.finished),
				fmt.Sprint(o.errors),
				fmt.Sprintf("%.2f%%", errPct),
				stats.FormatDuration(o.io.Percentile(95)),
				stats.FormatDuration(o.io.Percentile(99)),
				stats.FormatDuration(o.puts.Percentile(95)),
				stats.FormatDuration(o.puts.Percentile(99)),
				fmt.Sprint(o.counters.CopiesSent),
				fmt.Sprint(o.counters.WastedWrites),
			)
			if o.snap != nil {
				res.Metrics = append(res.Metrics, o.snap)
			}
		}
		res.Tables = append(res.Tables, tb)
	}
	res.Notes = append(res.Notes,
		"tables: one per YCSB mix (A update-heavy, B read-mostly, F read-modify-write); "+
			"copies = replica put copies sent, wasted wr = extra copies durably applied after the quorum verdict")
	return res
}
