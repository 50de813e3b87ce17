// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §6, §7). Each experiment is a pure function of its
// options: the same seed produces byte-identical output. The experiment
// index lives in DESIGN.md; EXPERIMENTS.md records paper-vs-measured for
// each run.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/core"
	"mittos/internal/disk"
	"mittos/internal/metrics"
	"mittos/internal/netsim"
	"mittos/internal/noise"
	"mittos/internal/sim"
	"mittos/internal/ssd"
	"mittos/internal/stats"
	"mittos/internal/ycsb"
)

// Options control experiment scale; defaults reproduce the paper's setup at
// simulation-friendly durations, and tests/benches shrink them further.
type Options struct {
	// Seed drives every RNG stream in the experiment.
	Seed int64
	// Nodes is the fleet size for macro experiments (paper: 20).
	Nodes int
	// Clients is the number of concurrent YCSB clients (paper: 20).
	Clients int
	// Duration is the measured virtual time per strategy run.
	Duration time.Duration
	// Interval is the per-client request period.
	Interval time.Duration
	// Keys is the KV keyspace per node.
	Keys int64
	// Workers bounds the worker pool the experiment's independent legs run
	// on. 0 (the default) means one worker per CPU; 1 forces the serial
	// reference schedule. Output is byte-identical for any value: legs are
	// hermetic and results are assembled in declaration order.
	Workers int
	// Metrics enables the per-layer metrics registry (and, for fig4/fig7,
	// per-leg snapshots attached to the Result). Off by default: the
	// simulation carries only a nil recorder pointer.
	Metrics bool
	// TraceIOs bounds per-IO span capture per fleet when Metrics is on:
	// 0 captures counters/histograms only, N > 0 the first N spans, and a
	// negative value every span.
	TraceIOs int
	// Faults overrides the failslow experiment's fault schedule with a
	// parsed config string (see faults.ParseSchedule; the mittbench
	// -faults flag). Empty means the experiment's built-in scenario.
	Faults string
	// Rates overrides the loadsweep experiment's offered-load multipliers
	// (× measured saturation; the mittbench -rates flag). Empty means the
	// built-in 0.2→1.5 sweep.
	Rates []float64
}

// DefaultOptions is the full-scale configuration.
func DefaultOptions() Options {
	return Options{
		Seed:     1,
		Nodes:    20,
		Clients:  20,
		Duration: 60 * time.Second,
		Interval: 15 * time.Millisecond,
		Keys:     100000,
	}
}

// QuickOptions is a reduced configuration for tests and benches.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Nodes = 9
	o.Clients = 6
	o.Duration = 10 * time.Second
	o.Interval = 10 * time.Millisecond // same ~67 IOPS/node as full scale
	o.Keys = 20000
	return o
}

// Series is one labelled latency distribution (a CDF line in a figure).
type Series struct {
	Name   string
	Sample *stats.Sample
}

// CDF returns the series' plotted points.
func (s Series) CDF(points int) []stats.CDFPoint { return s.Sample.CDF(points) }

// Result is a rendered experiment.
type Result struct {
	ID     string
	Title  string
	Series []Series
	Tables []*stats.Table
	Notes  []string
	// Metrics holds per-leg observability snapshots when the experiment ran
	// with Options.Metrics set (fig4 and fig7 attach them), in leg
	// declaration order. They are NOT part of String(): golden outputs stay
	// identical with metrics on or off.
	Metrics []*metrics.Snapshot
	// Sweep holds the loadsweep experiment's per-cell results (empty for
	// every other experiment) — the machine-readable twin of its tables,
	// dumped by mittbench -sweep-json. Like Metrics, it is NOT part of
	// String().
	Sweep []SweepPoint
}

// String renders the result in paper-style ASCII.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Series) > 0 {
		tb := &stats.Table{Header: []string{"series", "n", "avg", "p50", "p75", "p90", "p95", "p99", "max"}}
		for _, s := range r.Series {
			tb.AddRow(s.Name,
				fmt.Sprint(s.Sample.N()),
				stats.FormatDuration(s.Sample.Mean()),
				stats.FormatDuration(s.Sample.Percentile(50)),
				stats.FormatDuration(s.Sample.Percentile(75)),
				stats.FormatDuration(s.Sample.Percentile(90)),
				stats.FormatDuration(s.Sample.Percentile(95)),
				stats.FormatDuration(s.Sample.Percentile(99)),
				stats.FormatDuration(s.Sample.Max()),
			)
		}
		b.WriteString(tb.String())
	}
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	return b.String()
}

// Plot renders the result's series as an ASCII CDF chart (the shape of the
// paper's latency-CDF figures).
func (r *Result) Plot(width, height int) string {
	in := make([]struct {
		Name   string
		Sample *stats.Sample
	}, 0, len(r.Series))
	for _, s := range r.Series {
		in = append(in, struct {
			Name   string
			Sample *stats.Sample
		}{s.Name, s.Sample})
	}
	return stats.PlotCDFs(in, width, height)
}

// FindSeries returns the named series, or nil.
func (r *Result) FindSeries(name string) *Series {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}

// sharedDiskProfile caches the (deterministic, seed-fixed) offline profile:
// the paper profiles its disk once and reuses the model everywhere.
var sharedDiskProfile = disk.ProfileTwin(disk.DefaultConfig(), 42,
	disk.ProfilerOptions{Buckets: 48, Tries: 8, ProbeSize: 4096})

// DiskProfile exposes the shared profile (examples reuse it).
func DiskProfile() *disk.Profile { return sharedDiskProfile }

// fleet bundles one engine + cluster + noise for a strategy run.
type fleet struct {
	eng     *sim.Engine
	net     *netsim.Network
	c       *cluster.Cluster
	noise   []*noise.Bursty
	metrics *metrics.Set // non-nil only when Options.Metrics is set
	arena   *legArena    // non-nil when the fleet draws from a leg arena
}

// snapshot captures the fleet's metrics under the leg label, or nil when
// metrics are off.
func (f *fleet) snapshot(leg string) *metrics.Snapshot {
	if f.metrics == nil {
		return nil
	}
	return f.metrics.Snapshot(leg)
}

// fleetKind selects the storage flavour of a fleet.
type fleetKind int

const (
	fleetDisk fleetKind = iota
	fleetDiskCache
	fleetSSD
)

// newFleetOn builds a fleet on an existing engine — used when several
// tiers must demonstrably co-exist in one deployment (§7.8.5) and by the
// arena path. A non-nil arena supplies the shared serve-context/request
// pools, the SSD device pool, and the sample-buffer pool, and registers the
// fleet for teardown at arena reset.
func newFleetOn(a *legArena, eng *sim.Engine, opt Options, kind fleetKind, mitt bool, seedSalt string) *fleet {
	root := sim.NewRNG(opt.Seed, "fleet-"+seedSalt)
	net := netsim.New(eng, netsim.DefaultConfig(), root.Fork("net"))
	var ms *metrics.Set
	if opt.Metrics {
		ms = metrics.New(eng, opt.Nodes, opt.TraceIOs)
	}
	tmpl := cluster.NodeConfig{
		MittOptions: core.DefaultOptions(),
		Mitt:        mitt,
		Keys:        opt.Keys,
		DiskProfile: sharedDiskProfile,
		Metrics:     ms,
	}
	if a != nil {
		tmpl.Pools = a.pools
		tmpl.SSDPool = a.ssds
	}
	switch kind {
	case fleetDisk:
		tmpl.Device = cluster.DeviceDisk
		tmpl.DiskConfig = disk.DefaultConfig()
		tmpl.UseCFQ = true
	case fleetDiskCache:
		tmpl.Device = cluster.DeviceDisk
		tmpl.DiskConfig = disk.DefaultConfig()
		tmpl.UseCFQ = true
		// Cache sized to hold the working set (the paper's 3.5GB-in-4GB
		// setup): keys × 4KB blocks, plus headroom.
		tmpl.CachePages = int(opt.Keys + opt.Keys/4)
		// The §5 MongoDB read path: addrcheck() + page faults (applies
		// when the Mitt layer is present).
		tmpl.Mmap = true
	case fleetSSD:
		tmpl.Device = cluster.DeviceSSD
		cfg := ssd.DefaultConfig()
		tmpl.SSDConfig = cfg
		if opt.Keys*4096 > cfg.LogicalBytes() {
			panic("experiments: keyspace exceeds SSD capacity")
		}
	}
	// NOTE: the node RNG stream is derived from opt.Seed only (not the
	// salt) so Mitt and non-Mitt fleets share device randomness.
	c := cluster.NewCluster(eng, net, opt.Nodes, 3, tmpl, sim.NewRNG(opt.Seed, "nodes"))
	f := &fleet{eng: eng, net: net, c: c, metrics: ms, arena: a}
	if a != nil {
		a.fleets = append(a.fleets, f)
	}
	return f
}

// addEC2DiskNoise attaches a per-node bursty neighbor calibrated per §6.
func (f *fleet) addEC2DiskNoise(opt Options) {
	for i, n := range f.c.Nodes {
		cfg := noise.DefaultDiskBursty(500<<30, 900+i)
		b := noise.NewBursty(f.eng, cfg, n.NoiseSink(), sim.NewRNG(opt.Seed, fmt.Sprintf("noise-%d", i)))
		b.Start()
		f.noise = append(f.noise, b)
	}
}

// addEC2SSDNoise attaches SSD write-burst neighbors.
func (f *fleet) addEC2SSDNoise(opt Options) {
	for i, n := range f.c.Nodes {
		space := n.SSD.Config().LogicalBytes() / 2
		cfg := noise.DefaultSSDBursty(space, 900+i)
		b := noise.NewBursty(f.eng, cfg, n.NoiseSink(), sim.NewRNG(opt.Seed, fmt.Sprintf("noise-%d", i)))
		b.Start()
		f.noise = append(f.noise, b)
	}
}

func (f *fleet) stopNoise() {
	for _, b := range f.noise {
		b.Stop()
	}
}

// startClients launches opt.Clients open-loop YCSB clients against the
// strategy and returns them (collection happens after the engine runs).
func (f *fleet) startClients(opt Options, strat cluster.Strategy, scaleFactor int) []*cluster.Client {
	ccfg := cluster.DefaultClientConfig()
	ccfg.Interval = opt.Interval
	ccfg.ScaleFactor = scaleFactor
	// Pre-size each client's samples to the leg's expected op count so
	// steady-state recording never grows a slice.
	if opt.Interval > 0 {
		ccfg.ExpectedOps = int(opt.Duration/opt.Interval) + 1
	}
	if f.arena != nil {
		ccfg.Bufs = f.arena.bufs
	}
	var clients []*cluster.Client
	for i := 0; i < opt.Clients; i++ {
		wl := ycsb.New(ycsb.DefaultConfig(opt.Keys), sim.NewRNG(opt.Seed, fmt.Sprintf("wl-%d", i)))
		cl := cluster.NewClient(f.eng, ccfg, strat, wl, sim.NewRNG(opt.Seed, fmt.Sprintf("cl-%d", i)))
		cl.Start()
		clients = append(clients, cl)
	}
	if f.arena != nil {
		f.arena.adoptClients(clients)
	}
	return clients
}

// collectClients merges the clients' samples, pre-sized to the exact total.
func collectClients(clients []*cluster.Client) (io, user *stats.Sample) {
	nIO, nUser := 0, 0
	for _, cl := range clients {
		nIO += cl.IOLatencies.N()
		nUser += cl.UserLatencies.N()
	}
	io = stats.NewSample(nIO)
	user = stats.NewSample(nUser)
	for _, cl := range clients {
		io.Merge(cl.IOLatencies)
		user.Merge(cl.UserLatencies)
	}
	return io, user
}

// runClients drives the strategy with opt.Clients open-loop YCSB clients
// for opt.Duration and returns (per-IO latencies, per-user-request
// latencies).
func (f *fleet) runClients(opt Options, strat cluster.Strategy, scaleFactor int) (io, user *stats.Sample) {
	clients := f.startClients(opt, strat, scaleFactor)
	f.eng.RunFor(opt.Duration)
	for _, cl := range clients {
		cl.Stop()
	}
	f.stopNoise()
	f.eng.RunFor(5 * time.Second) // drain in-flight requests
	return collectClients(clients)
}

// baselineP95 measures the Base strategy's p95 on a fresh fleet — the value
// the paper uses for deadlines, hedge triggers, and timeouts ("we will use
// 13ms, the p95 latency, for deadline and timeout values", §7.2). It is the
// first stage of every experiment that needs the knob: expressed as a
// single runLegs stage so the dependency on it is an explicit barrier.
func baselineP95(opt Options, kind fleetKind, withNoise bool) (time.Duration, *stats.Sample) {
	var io *stats.Sample
	runLegs(opt.Workers, legs{func(a *legArena) {
		f := a.newFleet(opt, kind, false, "baseline")
		if withNoise {
			switch kind {
			case fleetSSD:
				f.addEC2SSDNoise(opt)
			default:
				f.addEC2DiskNoise(opt)
			}
		}
		io, _ = f.runClients(opt, &cluster.BaseStrategy{C: f.c}, 1)
	}})
	return io.Percentile(95), io
}

// reductionTable renders the paper's %-latency-reduction bars: one row per
// comparison, columns Avg/p75/p90/p95/p99 (footnote 2 of §7.2).
func reductionTable(mitt *stats.Sample, others map[string]*stats.Sample) *stats.Table {
	tb := &stats.Table{Header: []string{"vs", "Avg", "p75", "p90", "p95", "p99"}}
	for _, name := range []string{"Hedged", "Clone", "AppTO", "Base"} {
		o, ok := others[name]
		if !ok {
			continue
		}
		row := stats.ReductionRow(mitt, o)
		cells := []string{name}
		for _, v := range row {
			cells = append(cells, stats.FormatPct(v))
		}
		tb.AddRow(cells...)
	}
	return tb
}
