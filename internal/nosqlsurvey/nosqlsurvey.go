// Package nosqlsurvey reproduces Table 1 ("No 'TT' in NoSQL", §2): the
// tail-tolerance behaviour of six popular NoSQL systems, each modeled by
// its default timeout value and its failover/clone/hedging capabilities,
// exercised under the paper's methodology — 4 nodes (1 client, 3 replicas),
// thousands of 1KB reads, severe IO contention rotating across the replicas
// every second.
package nosqlsurvey

import (
	"errors"
	"strconv"
	"time"

	"mittos/internal/cluster"
	"mittos/internal/sim"
	"mittos/internal/stats"
)

// ErrTimeout is the user-visible read error systems without
// failover-on-timeout return ("undesirably, the users receive read errors
// even though less-busy replicas are available", §2).
var ErrTimeout = errors.New("nosqlsurvey: read timed out")

// SystemSpec encodes one NoSQL system's Table 1 row.
type SystemSpec struct {
	Name string
	// DefaultTT: whether the default configuration fails over away from a
	// busy replica at all (Table 1 column "Def. TT" — ✗ for all six).
	DefaultTT bool
	// DefaultTO is the default timeout (column "TO Val.").
	DefaultTO time.Duration
	// FailoverOnTimeout: with the timeout exercised (set to 100ms), does
	// the system retry another replica, or surface a read error?
	FailoverOnTimeout bool
	// Clone / HedgedOrTied: advanced mechanisms available (last columns).
	Clone        bool
	HedgedOrTied bool
	// Snitch: Cassandra picks replicas by monitored latency.
	Snitch bool
}

// Systems returns the six systems exactly as Table 1 reports them:
// all lack default tail tolerance; timeouts are tens of seconds; Couchbase,
// MongoDB, and Riak do not fail over even when a timeout fires; only HBase
// and Voldemort can clone; none hedge.
func Systems() []SystemSpec {
	return []SystemSpec{
		{Name: "Cassandra", DefaultTO: 12 * time.Second, FailoverOnTimeout: true, Snitch: true},
		{Name: "Couchbase", DefaultTO: 75 * time.Second},
		{Name: "HBase", DefaultTO: 60 * time.Second, FailoverOnTimeout: true, Clone: true},
		{Name: "MongoDB", DefaultTO: 30 * time.Second},
		{Name: "Riak", DefaultTO: 10 * time.Second},
		{Name: "Voldemort", DefaultTO: 5 * time.Second, FailoverOnTimeout: true, Clone: true},
	}
}

// Result is one measured row.
type Result struct {
	Spec SystemSpec
	// DefaultP99 is the p99 read latency under rotating contention with
	// the system's default configuration (timeouts in the tens of seconds
	// never fire, so the tail absorbs the full contention).
	DefaultP99 time.Duration
	// TunedErrors counts user-visible read errors when the timeout is
	// tightened to 100ms on a system that cannot fail over.
	TunedErrors int
	// TunedP99 is the p99 with the 100ms timeout.
	TunedP99 time.Duration
	// Requests is the sample size per phase.
	Requests int
}

// systemStrategy adapts a SystemSpec to a request strategy.
type systemStrategy struct {
	c      *cluster.Cluster
	spec   SystemSpec
	to     time.Duration
	snitch *cluster.SnitchStrategy
	rng    *sim.RNG
}

func (s *systemStrategy) get(key int64, onDone func(lat time.Duration, err error)) {
	start := s.c.Eng.Now()
	if s.spec.Snitch {
		// Cassandra: snitching picks the historically fastest replica; no
		// timeout-based failover within our 100ms-class window.
		s.snitch.Get(key, func(res cluster.GetResult) {
			onDone(s.c.Eng.Now().Sub(start), res.Err)
		})
		return
	}
	replicas := s.c.ReplicasFor(key)
	var attempt func(i int)
	attempt = func(i int) {
		done := false
		var timer *sim.Event
		timer = s.c.Eng.Schedule(s.to, func() {
			if done {
				return
			}
			done = true
			if s.spec.FailoverOnTimeout && i+1 < len(replicas) {
				attempt(i + 1)
				return
			}
			// No failover: the user gets a read error (§2).
			onDone(s.c.Eng.Now().Sub(start), ErrTimeout)
		})
		s.c.ReplicaCall(replicas[i], key, 0, func(err error) {
			if done {
				return
			}
			done = true
			timer.Cancel()
			onDone(s.c.Eng.Now().Sub(start), err)
		})
	}
	attempt(0)
}

// RunOptions shape the survey experiment.
type RunOptions struct {
	Requests       int           // reads per phase
	Interval       time.Duration // client request spacing
	RotationPeriod time.Duration // contention rotation (1s in §2)
	TunedTO        time.Duration // the exercised timeout (100ms in §2)
	Keys           int64
	Seed           int64
}

// DefaultRunOptions mirror §2 at simulation-friendly scale.
func DefaultRunOptions() RunOptions {
	return RunOptions{
		Requests:       2000,
		Interval:       5 * time.Millisecond,
		RotationPeriod: time.Second,
		TunedTO:        100 * time.Millisecond,
		Keys:           20000,
		Seed:           1,
	}
}

// BuildCluster constructs the 3-replica fleet the survey runs against; the
// caller owns noise injection so tests can reuse it.
type runPhase struct {
	lat    *stats.Sample
	errors int
}

// Run executes the survey for every system and returns measured rows.
// The builder function must return a fresh 3-node cluster plus a "start
// rotating contention" thunk; each (system, phase) runs on its own cluster
// so state never leaks between rows.
func Run(opt RunOptions, build func(seed int64) (*cluster.Cluster, func(), func())) []Result {
	var out []Result
	for si, spec := range Systems() {
		res := Result{Spec: spec, Requests: opt.Requests}
		// Phase 1: default configuration.
		p := runPhase{lat: stats.NewSample(opt.Requests)}
		runOne(opt, build, int64(si)*2+opt.Seed, spec, spec.DefaultTO, &p)
		res.DefaultP99 = p.lat.Percentile(99)
		// Phase 2: timeout tightened to 100ms.
		p2 := runPhase{lat: stats.NewSample(opt.Requests)}
		runOne(opt, build, int64(si)*2+1+opt.Seed, spec, opt.TunedTO, &p2)
		res.TunedErrors = p2.errors
		res.TunedP99 = p2.lat.Percentile(99)
		out = append(out, res)
	}
	return out
}

func runOne(opt RunOptions, build func(seed int64) (*cluster.Cluster, func(), func()),
	seed int64, spec SystemSpec, to time.Duration, phase *runPhase) {
	c, startNoise, stopNoise := build(seed)
	strat := &systemStrategy{
		c: c, spec: spec, to: to,
		snitch: &cluster.SnitchStrategy{C: c},
		rng:    sim.NewRNG(seed, "survey"),
	}
	startNoise()
	keyRNG := sim.NewRNG(seed, "keys")
	issued := 0
	var tick *sim.Ticker
	tick = c.Eng.NewTicker(opt.Interval, func() {
		if issued >= opt.Requests {
			tick.Stop()
			return
		}
		issued++
		strat.get(keyRNG.Int63n(opt.Keys), func(lat time.Duration, err error) {
			phase.lat.Add(lat)
			if err != nil {
				phase.errors++
			}
		})
	})
	horizon := time.Duration(opt.Requests)*opt.Interval + 2*opt.RotationPeriod + to
	c.Eng.RunFor(horizon)
	stopNoise()
	c.Eng.RunFor(to + time.Second) // drain stragglers
}

// Table renders the paper-style Table 1 plus measured columns.
func Table(results []Result) string {
	tb := &stats.Table{Header: []string{
		"System", "Def.TT", "TO Val.", "Failover", "Clone", "Hedged/Tied",
		"p99 (default)", "errors @100ms TO",
	}}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range results {
		tb.AddRow(
			r.Spec.Name,
			mark(r.Spec.DefaultTT),
			r.Spec.DefaultTO.String(),
			mark(r.Spec.FailoverOnTimeout),
			mark(r.Spec.Clone),
			mark(r.Spec.HedgedOrTied),
			stats.FormatDuration(r.DefaultP99),
			strconv.Itoa(r.TunedErrors),
		)
	}
	return tb.String()
}
