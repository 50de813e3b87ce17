package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"mittos/internal/metrics"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the --trace 0 metrics: host cost of regenerating the
// workload, measured with tracing off.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
}

// countSpecs are the exact counts summed over the traced run's per-leg
// metrics snapshots. They repeat exactly for a given seed.
var countSpecs = []metricSpec{
	{"sim.events_fired", "count"},
	{"sim.cascades", "count"},
	{"sim.max_pending", "count"},
	{"node.ios", "count"},
	{"node.ebusy", "count"},
	{"node.slo_missed", "count"},
	{"core.mitt_accepted", "count"},
	{"core.mitt_rejected", "count"},
	{"core.accept_ratio", "ratio"},
	{"iosched.cfq_dispatched", "count"},
	{"iosched.cfq_dropped", "count"},
	{"disk.ios", "count"},
	{"disk.max_queue", "count"},
	{"oscache.hits", "count"},
	{"oscache.misses", "count"},
	{"oscache.evictions", "count"},
}

// derivedSpecs combine the untraced and traced runs.
var derivedSpecs = []metricSpec{
	{"sim.ns_per_event", "ns"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"ledger.residual_pct", "%"},
}

// perLayer lists every --trace 1 metric in report order.
func perLayer() []metricSpec {
	specs := append([]metricSpec{}, countSpecs...)
	for _, l := range profileLayers {
		specs = append(specs, metricSpec{"self_pct." + l, "%"})
	}
	for _, m := range micros {
		specs = append(specs, metricSpec{m.name, "ns"})
	}
	return append(specs, derivedSpecs...)
}

// assemble attaches units to measured values. The values must name exactly
// the specs, so the printed metrics cannot drift from BENCHMARK.json.
func assemble(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	if len(values) != len(specs) {
		return nil, fmt.Errorf("measured %d metrics, expected %d", len(values), len(specs))
	}
	ms := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		ms[s.name] = metric{v, s.unit}
	}
	return ms, nil
}

// cfqMaxQueue is the deepest CFQ queue of the traced run. It shapes the
// admission microbenchmark and is not reported itself.
const cfqMaxQueue = "iosched.max_queue"

// countsOf sums the exact per-layer counts over a run's leg snapshots.
// Maxima (queue depth, pending events) take the largest leg.
func countsOf(snaps []*metrics.Snapshot) map[string]float64 {
	c := make(map[string]float64, len(countSpecs))
	for _, s := range countSpecs {
		c[s.name] = 0
	}
	for _, sn := range snaps {
		c["sim.events_fired"] += float64(sn.Engine.Fired)
		c["sim.cascades"] += float64(sn.Engine.Cascades)
		c["sim.max_pending"] = math.Max(c["sim.max_pending"], float64(sn.Engine.MaxPending))
		for _, row := range sn.Counters {
			v := float64(row.Value)
			switch row.Resource {
			case "node":
				switch row.Counter {
				case "submitted":
					c["node.ios"] += v
				case "rejected":
					c["node.ebusy"] += v
				case "slo-missed":
					c["node.slo_missed"] += v
				}
			case "mittnoop", "mittcfq", "mittssd", "mittcache":
				switch row.Counter {
				case "accepted":
					c["core.mitt_accepted"] += v
				case "rejected", "rejected-late":
					c["core.mitt_rejected"] += v
				}
			case "sched-cfq":
				switch row.Counter {
				case "dispatched":
					c["iosched.cfq_dispatched"] += v
				case "dropped":
					c["iosched.cfq_dropped"] += v
				}
			case "disk":
				if row.Counter == "submitted" {
					c["disk.ios"] += v
				}
			case "cache":
				switch row.Counter {
				case "cache-hit":
					c["oscache.hits"] += v
				case "cache-miss":
					c["oscache.misses"] += v
				case "evictions":
					c["oscache.evictions"] += v
				}
			}
		}
		for _, q := range sn.MaxQueue {
			switch q.Resource {
			case "disk":
				c["disk.max_queue"] = math.Max(c["disk.max_queue"], float64(q.Max))
			case "sched-cfq":
				c[cfqMaxQueue] = math.Max(c[cfqMaxQueue], float64(q.Max))
			}
		}
	}
	if d := c["core.mitt_accepted"] + c["core.mitt_rejected"]; d > 0 {
		c["core.accept_ratio"] = c["core.mitt_accepted"] / d
	}
	return c
}

// ledgerTerm is one layer's modelled cost: an exact count times the
// microbenchmarked ns per call.
type ledgerTerm struct {
	Layer   string  `json:"layer"`
	Count   string  `json:"count"`
	Call    string  `json:"call"`
	N       float64 `json:"n"`
	NsEach  float64 `json:"ns_each"`
	Seconds float64 `json:"seconds"`
}

// ledgerPairs join each count to the call it pays for. The calls overlap
// (a CFQ round trip includes disk service and engine events), so the sum is
// a model, and the residual against measured CPU time is what it misses.
var ledgerPairs = []struct{ layer, count, call string }{
	{"sim", "sim.events_fired", "ns.sim.after_fire"},
	{"core", "core.mitt_accepted", "ns.core.predict_wait_cfq"},
	{"core", "core.mitt_rejected", "ns.core.predict_wait_cfq"},
	{"iosched", "iosched.cfq_dispatched", "ns.iosched.cfq_submit_dispatch"},
	{"disk", "disk.ios", "ns.disk.submit_sstf"},
	{"oscache", "oscache.hits", "ns.oscache.submit_hit"},
	{"oscache", "oscache.misses", "ns.oscache.submit_miss"},
	{"oscache", "oscache.evictions", "ns.oscache.evict_rewarm"},
}

// ledger models cpuS as Σ count × ns per call and returns the terms and
// the residual share of cpuS the model leaves unexplained.
func ledger(counts, ns map[string]float64, cpuS float64) ([]ledgerTerm, float64) {
	var terms []ledgerTerm
	sum := 0.0
	for _, p := range ledgerPairs {
		t := ledgerTerm{Layer: p.layer, Count: p.count, Call: p.call, N: counts[p.count], NsEach: ns[p.call]}
		t.Seconds = t.N * t.NsEach / 1e9
		sum += t.Seconds
		terms = append(terms, t)
	}
	if cpuS <= 0 {
		return terms, 0
	}
	return terms, (cpuS - sum) / cpuS * 100
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupProbes is how many extra children only measure set-up time; every
// measured run contributes one more sample.
const setupProbes = 7

// measureRun is --trace 0: set-up probes, then one untraced child per
// experiment seed of the run's window, reporting the median of each metric.
func measureRun(root, workload string, seed int64, seconds int) (result, error) {
	var t tally
	var setups, walls, cpus, allocs []float64
	for i := 0; i < setupProbes; i++ {
		rep, err := spawn(modeProbe, workload, seed, "")
		if err != nil {
			return result{}, err
		}
		setups = append(setups, rep.SetupS)
	}
	n := runsFor(workload, seconds)
	fmt.Printf("# %s: %d runs from experiment seed %d\n", workload, n, expSeed(seed, 0))
	for i := 0; i < n; i++ {
		es := expSeed(seed, i)
		ref, err := loadReference(root, workload, es)
		if err != nil {
			return result{}, err
		}
		rep, err := spawn(modeRun, workload, es, "")
		t.check(ref, fmt.Sprintf("run %d (seed %d)", i+1, es), rep, err)
		if err != nil {
			continue
		}
		setups = append(setups, rep.SetupS)
		walls = append(walls, rep.WallS)
		cpus = append(cpus, rep.CPUS)
		allocs = append(allocs, float64(rep.AllocBytes)/1e6)
		fmt.Printf("# run %d, seed %d: wall %.3fs cpu %.3fs alloc %.1fMB setup %.4fs rss %.0fMB\n",
			i+1, es, rep.WallS, rep.CPUS, float64(rep.AllocBytes)/1e6, rep.SetupS, rep.PeakRSSMB)
	}
	if len(walls) == 0 {
		return t.result(nil), errNoRuns
	}
	ms, err := assemble(endToEnd, map[string]float64{
		"wall_s":   median(walls),
		"cpu_s":    median(cpus),
		"alloc_mb": median(allocs),
		"setup_s":  median(setups),
	})
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# %d runs, %d set-up samples\n", len(walls), len(setups))
	return t.result(ms), nil
}

// traceRun is --trace 1: untraced and traced runs of the window's first
// experiment seed, alternating, about `seconds` worth (at least one pair);
// the traced runs' CPU profiles credited to packages; the layer
// microbenchmarks shaped by the traced counts; and the ledger that joins
// them. Every traced run must render the same output as the untraced runs
// and repeat the same exact counts.
func traceRun(root, workload string, seed int64, seconds int) (result, error) {
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return result{}, err
	}
	es := expSeed(seed, 0)
	ref, err := loadReference(root, workload, es)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# traced seed %d: reference %s\n", es, ref.source)
	var t tally
	var plains, traceds []*childReport
	var profiles []string
	n := int(math.Max(1, math.Round(float64(runsFor(workload, seconds))/2)))
	for i := 0; i < n; i++ {
		plain, err := spawn(modeRun, workload, es, "")
		t.check(ref, fmt.Sprintf("untraced run %d", i+1), plain, err)
		if err != nil {
			return t.result(nil), err
		}
		prof := filepath.Join(artifactDir, fmt.Sprintf("%s-seed%d-%d.cpu.pprof", workload, es, i+1))
		traced, err := spawn(modeTraced, workload, es, prof)
		t.check(ref, fmt.Sprintf("traced run %d", i+1), traced, err)
		if err != nil {
			return t.result(nil), err
		}
		if traced.Digest != plain.Digest {
			t.fail(fmt.Sprintf("traced run %d rendered different output from its untraced twin", i+1))
		}
		if len(traceds) > 0 && !sameCounts(traceds[0].Counts, traced.Counts) {
			t.fail(fmt.Sprintf("traced run %d's exact counts differ from traced run 1's", i+1))
		}
		plains, traceds, profiles = append(plains, plain), append(traceds, traced), append(profiles, prof)
	}
	shares, err := profileShares(profiles)
	if err != nil {
		return result{}, err
	}
	counts := traceds[0].Counts
	ns := runMicros(shapeFrom(counts))

	pick := func(rs []*childReport, f func(*childReport) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	plainWall := pick(plains, func(r *childReport) float64 { return r.WallS })
	tracedWall := pick(traceds, func(r *childReport) float64 { return r.WallS })
	cpu := pick(plains, func(r *childReport) float64 { return r.CPUS })

	values := make(map[string]float64)
	for _, s := range countSpecs {
		values[s.name] = counts[s.name]
	}
	for _, l := range profileLayers {
		values["self_pct."+l] = shares[l]
	}
	for _, m := range micros {
		values[m.name] = ns[m.name]
	}
	terms, residual := ledger(counts, ns, cpu)
	perEvent := 0.0
	if ev := counts["sim.events_fired"]; ev > 0 {
		perEvent = cpu * 1e9 / ev
	}
	overhead := (tracedWall - plainWall) / plainWall * 100
	values["sim.ns_per_event"] = perEvent
	values["runtime.mallocs"] = pick(plains, func(r *childReport) float64 { return float64(r.Mallocs) })
	values["runtime.gc_cycles"] = pick(plains, func(r *childReport) float64 { return float64(r.GCCycles) })
	values["runtime.peak_rss_mb"] = pick(plains, func(r *childReport) float64 { return r.PeakRSSMB })
	values["trace.overhead_pct"] = overhead
	values["ledger.residual_pct"] = residual
	ms, err := assemble(perLayer(), values)
	if err != nil {
		return result{}, err
	}

	fmt.Printf("# %s, %d pairs: untraced wall %.3fs cpu %.3fs; traced wall %.3fs (overhead %.1f%%)\n",
		workload, len(plains), plainWall, cpu, tracedWall, overhead)
	printTrace(counts, shares, terms, cpu, residual)
	err = writeArtifact(fmt.Sprintf("%s-seed%d.trace.json", workload, es), map[string]any{
		"workload": workload, "seed": es, "workers": workers(),
		"untraced": plains, "traced": traceds, "self_pct": shares,
		"ns": ns, "ledger": terms, "ledger_residual_pct": residual, "profiles": profiles,
	})
	if err != nil {
		return result{}, err
	}
	return t.result(ms), nil
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// printTrace writes the human-readable traced-run report.
func printTrace(counts, shares map[string]float64, terms []ledgerTerm, cpu, residual float64) {
	fmt.Println("# exact counts (traced run, summed over legs):")
	for _, s := range countSpecs {
		fmt.Printf("#   %-24s %.6g\n", s.name, counts[s.name])
	}
	fmt.Println("# self time by package (traced runs' CPU profiles):")
	for _, l := range profileLayers {
		fmt.Printf("#   %-10s %5.1f%%\n", l, shares[l])
	}
	fmt.Println("# ledger: count × ns per call, against untraced cpu_s:")
	for _, t := range terms {
		fmt.Printf("#   %-8s %-24s %12.0f × %9.1f ns (%-32s) = %8.3fs\n", t.Layer, t.Count, t.N, t.NsEach, t.Call, t.Seconds)
	}
	fmt.Printf("#   cpu_s %.3fs, residual %.1f%%\n", cpu, residual)
}
