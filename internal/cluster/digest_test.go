package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/netsim"
	"mittos/internal/noise"
	"mittos/internal/sim"
)

// TestGetStrategyDigest pins every get strategy's observable behaviour on
// one scenario: a 5-node cluster with one contended replica, overlapping
// crashes that take down one, two and then all three replicas of some
// keys, and revivals. Each leg hashes every get's (key, Latency, Tries,
// Err) in completion order, the strategy's counters, each node's
// Served/Rejected/Refused and the network's hop count, then drains the leg
// with ReclaimStranded and hashes whatever that resolves too. No experiment
// golden covers MittOS-consistent or RetryOverhead, so this is what keeps a
// rewrite of the get path honest about them. Every get a leg issues must
// also finish.
func TestGetStrategyDigest(t *testing.T) {
	legs := []struct {
		name string
		mk   func(c *Cluster) Strategy
		want string
	}{
		{"Base", func(c *Cluster) Strategy { return &BaseStrategy{C: c} }, "863d0c67b80689c8"},
		{"AppTO", func(c *Cluster) Strategy { return &TimeoutStrategy{C: c, TO: 5 * time.Millisecond} }, "0394db05c2e59074"},
		{"Clone", func(c *Cluster) Strategy { return &CloneStrategy{C: c, RNG: sim.NewRNG(9, "clone")} }, "b2a45d2bea00dbd4"},
		{"Hedged", func(c *Cluster) Strategy { return &HedgedStrategy{C: c, HedgeAfter: 5 * time.Millisecond} }, "f3e516de5671ebe0"},
		{"Tied", func(c *Cluster) Strategy { return &TiedStrategy{C: c, RNG: sim.NewRNG(9, "tied")} }, "c9a04574e05adfe0"},
		{"Tied-1ms", func(c *Cluster) Strategy {
			return &TiedStrategy{C: c, RNG: sim.NewRNG(9, "tied"), Delay: time.Millisecond}
		}, "f4a0f747540eb0f1"},
		{"Snitch", func(c *Cluster) Strategy { return &SnitchStrategy{C: c} }, "1ae86deaa4113e96"},
		{"C3", func(c *Cluster) Strategy { return &C3Strategy{C: c} }, "6583c2830243f16f"},
		{"MittOS", func(c *Cluster) Strategy { return &MittOSStrategy{C: c, Deadline: 10 * time.Millisecond} }, "98a04dea82ce12cf"},
		{"MittOS-hint", func(c *Cluster) Strategy {
			return &MittOSStrategy{C: c, Deadline: 10 * time.Millisecond, UseWaitHint: true}
		}, "c7a86c1297f03de1"},
		{"MittOS-overhead", func(c *Cluster) Strategy {
			return &MittOSStrategy{C: c, Deadline: 10 * time.Millisecond, RetryOverhead: 200 * time.Microsecond}
		}, "f10da225315b48f6"},
		{"MittOS-hint-overhead", func(c *Cluster) Strategy {
			return &MittOSStrategy{C: c, Deadline: 10 * time.Millisecond, UseWaitHint: true,
				RetryOverhead: 200 * time.Microsecond}
		}, "554a2bef20dd9dfd"},
		{"MittOS-consistent", func(c *Cluster) Strategy {
			return &ConsistentMittOSStrategy{C: c, Deadline: 10 * time.Millisecond}
		}, "4bdad94098c34532"},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			got, finished := getStrategyDigest(leg.mk)
			if finished != digestGets {
				t.Errorf("%d of %d gets finished", finished, digestGets)
			}
			if got != leg.want {
				t.Errorf("digest = %s, want %s", got, leg.want)
			}
		})
	}
}

// digestGets is the number of gets the digest scenario issues.
const digestGets = 400

// getStrategyDigest runs the digest scenario under one strategy and returns
// the hex FNV-64a of everything it observed and the number of gets that
// finished.
func getStrategyDigest(mk func(c *Cluster) Strategy) (string, int) {
	const (
		gets  = digestGets
		every = 250 * time.Microsecond
		keys  = 60
	)
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(71, "digest-net"))
	c := NewCluster(eng, net, 5, 3, diskNodeTemplate(true, 10000), sim.NewRNG(72, "digest"))
	// Uneven replication so the consistent strategy meets stale replicas:
	// the primary is always newest, the secondary sometimes catches up.
	for k := int64(0); k < keys; k++ {
		reps := c.ReplicasFor(k)
		c.Nodes[reps[0]].Store.ApplyReplicated(k, uint64(1+k%3))
		if k%2 == 0 {
			c.Nodes[reps[1]].Store.ApplyReplicated(k, 1)
		}
	}
	st := noise.NewSteady(eng, c.Nodes[0].NoiseSink(), sim.NewRNG(5, "digest-noise"),
		blockio.Read, 1<<20, 4, blockio.ClassBestEffort, 4, 99, 500<<30)
	st.Start()

	s := mk(c)
	h := fnv.New64a()
	finished := 0
	for i := 0; i < gets; i++ {
		i, key := i, int64(i*13%keys)
		eng.After(time.Duration(i)*every, func() {
			s.Get(key, func(r GetResult) {
				finished++
				writeGet(h, i, key, r)
			})
		})
	}
	// Overlapping crashes: nodes 1, 2 and 3 go down in turn (the replica
	// set {1,2,3} is wholly down for 4ms) and come back in reverse order.
	for _, ev := range []struct {
		at   time.Duration
		node int
		down bool
	}{
		{30 * time.Millisecond, 1, true}, {35 * time.Millisecond, 2, true},
		{38 * time.Millisecond, 3, true}, {42 * time.Millisecond, 3, false},
		{46 * time.Millisecond, 2, false}, {50 * time.Millisecond, 1, false},
	} {
		n, down := c.Nodes[ev.node], ev.down
		eng.After(ev.at, func() {
			if down {
				n.Crash()
			} else {
				n.Revive()
			}
		})
	}
	eng.RunFor(gets*every + 50*time.Millisecond)
	st.Stop()
	eng.RunFor(10 * time.Second)
	fmt.Fprintf(h, "drained %v finished %d\n", eng.Now(), finished)
	for _, n := range c.Nodes {
		fmt.Fprintf(h, "reclaimed %d\n", n.ReclaimStranded())
	}

	switch s := s.(type) {
	case *TimeoutStrategy:
		fmt.Fprintf(h, "retries %d wasted %d\n", s.Retries, s.WastedIOs)
	case *CloneStrategy:
		fmt.Fprintf(h, "wasted %d\n", s.WastedIOs)
	case *HedgedStrategy:
		fmt.Fprintf(h, "hedges %d wasted %d\n", s.Hedges, s.WastedIOs)
	case *TiedStrategy:
		fmt.Fprintf(h, "cancelled %d wasted %d\n", s.Cancelled, s.WastedIOs)
	case *MittOSStrategy:
		fmt.Fprintf(h, "failovers %d lastditch %d\n", s.Failovers, s.LastDitch)
	case *ConsistentMittOSStrategy:
		fmt.Fprintf(h, "failovers %d staleskips %d forced %d\n", s.Failovers, s.StaleSkips, s.ForcedToWait)
	}
	for i, n := range c.Nodes {
		fmt.Fprintf(h, "node %d served %d rejected %d refused %d\n", i, n.Served(), n.Rejected(), n.Refused())
	}
	fmt.Fprintf(h, "hops %d\n", net.Sent())
	return fmt.Sprintf("%016x", h.Sum64()), finished
}

func writeGet(w io.Writer, i int, key int64, r GetResult) {
	err := "nil"
	if r.Err != nil {
		err = r.Err.Error()
	}
	fmt.Fprintf(w, "get %d key %d lat %d tries %d err %s\n", i, key, r.Latency, r.Tries, err)
}
