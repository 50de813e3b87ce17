package cluster

import (
	"errors"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/netsim"
	"mittos/internal/noise"
	"mittos/internal/sim"
)

// newPutCluster builds an n-node fleet with R = 3, so nodes past the key's
// replica set are the ring's handoff and failover targets.
func newPutCluster(t *testing.T, n int, mitt bool) *Cluster {
	t.Helper()
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(61, t.Name()+"-net"))
	return NewCluster(eng, net, n, 3, diskNodeTemplate(mitt, 10000), sim.NewRNG(62, t.Name()))
}

// ringNode is the node i places past key's primary on the ring; offsets 0-2
// are the replica set, 3 and up the handoff candidates in take order.
func ringNode(c *Cluster, key int64, i int) int {
	return (c.ReplicasFor(key)[0] + i) % len(c.Nodes)
}

// putOnce issues one put, drains the fleet, and returns the verdict; the
// put's callback must fire exactly once.
func putOnce(t *testing.T, c *Cluster, ps PutStrategy, key int64) PutResult {
	t.Helper()
	calls := 0
	var res PutResult
	ps.Put(key, func(r PutResult) { res = r; calls++ })
	c.Eng.RunFor(5 * time.Second)
	if calls != 1 {
		t.Fatalf("put verdict delivered %d times, want exactly once", calls)
	}
	return res
}

// checkConserved asserts the PutCounters invariants that hold once every
// copy has replied.
func checkConserved(t *testing.T, pc *PutCounters) {
	t.Helper()
	if got := pc.Acks + pc.Busy + pc.NodeDown + pc.Errors; got != pc.CopiesSent {
		t.Fatalf("CopiesSent %d != Acks+Busy+NodeDown+Errors %d (%+v)", pc.CopiesSent, got, *pc)
	}
	if pc.Puts != pc.Quorums+pc.Failed {
		t.Fatalf("Puts %d != Quorums+Failed %d", pc.Puts, pc.Quorums+pc.Failed)
	}
}

// slowRing keeps nodes busy with 1 MiB reads so a copy sent there acks long
// after an idle replica's; the returned func stops the noise.
func slowRing(c *Cluster, nodes ...int) func() {
	var sts []*noise.Steady
	for _, n := range nodes {
		st := noise.NewSteady(c.Eng, c.Nodes[n].NoiseSink(), sim.NewRNG(int64(n), "slow"),
			blockio.Read, 1<<20, 4, blockio.ClassBestEffort, 4, 99, 500<<30)
		st.Start()
		sts = append(sts, st)
	}
	return func() {
		for _, st := range sts {
			st.Stop()
		}
	}
}

// handoffCase is one of the two strategies that hand missing acks to the
// ring: count is the counter the strategy keeps for its hand-offs.
type handoffCase struct {
	name       string
	make       func(c *Cluster, after time.Duration) (PutStrategy, *PutCounters, *uint64)
	crashCount bool // whether a crash handoff adds to count
}

var handoffCases = []handoffCase{
	{"AppTO", func(c *Cluster, after time.Duration) (PutStrategy, *PutCounters, *uint64) {
		s := &TimeoutPut{C: c, TO: after}
		return s, &s.PutCounters, &s.Retries
	}, true},
	{"Hedged", func(c *Cluster, after time.Duration) (PutStrategy, *PutCounters, *uint64) {
		s := &HedgedPut{C: c, HedgeAfter: after}
		return s, &s.PutCounters, &s.Hedges
	}, false},
}

// TestHandoffPutCrashedReplica: a crashed base replica's refusal hands its
// copy to the first live ring node at once, well before the timer. AppTO
// counts that handoff as a retry; Hedged does not count it as a hedge.
func TestHandoffPutCrashedReplica(t *testing.T) {
	const key = 0
	for _, tc := range handoffCases {
		t.Run(tc.name, func(t *testing.T) {
			c := newPutCluster(t, 5, false)
			crashed := c.ReplicasFor(key)[1]
			c.Nodes[crashed].Crash()
			ps, pc, count := tc.make(c, time.Second)
			res := putOnce(t, c, ps, key)
			if res.Err != nil {
				t.Fatalf("err = %v, want a quorum from the survivors plus the handoff", res.Err)
			}
			want := uint64(0)
			if tc.crashCount {
				want = 1
			}
			if *count != want {
				t.Fatalf("hand-off counter = %d, want %d", *count, want)
			}
			if pc.CopiesSent != 4 || pc.NodeDown != 1 || pc.Acks != 3 {
				t.Fatalf("counters %+v, want 4 copies, 1 node-down, 3 acks", *pc)
			}
			if got := c.Nodes[ringNode(c, key, 3)].Served(); got != 1 {
				t.Fatalf("first ring node served %d, want the one handoff", got)
			}
			if got := c.Nodes[ringNode(c, key, 4)].Served(); got != 0 {
				t.Fatalf("second ring node served %d, want 0", got)
			}
			checkConserved(t, pc)
		})
	}
}

// TestHandoffPutTimer: the timer hands off exactly W - acks copies, to live
// ring nodes only. The hand-off copies are made slow so they ack after the
// verdict: each such late extra ack is one WastedWrites, while the late
// third base replica's ack is replication, never waste.
func TestHandoffPutTimer(t *testing.T) {
	const key = 0
	for _, tc := range handoffCases {
		t.Run(tc.name, func(t *testing.T) {
			c := newPutCluster(t, 7, false)
			dead := ringNode(c, key, 3)
			c.Nodes[dead].Crash()
			stop := slowRing(c, ringNode(c, key, 4), ringNode(c, key, 5))
			c.Eng.RunFor(100 * time.Millisecond)
			// The timer fires before any copy has even reached its replica.
			ps, pc, count := tc.make(c, 100*time.Microsecond)
			calls := 0
			var res PutResult
			ps.Put(key, func(r PutResult) { res = r; calls++ })
			c.Eng.RunFor(2 * time.Second)
			stop()
			c.Eng.RunFor(5 * time.Second)
			if calls != 1 || res.Err != nil {
				t.Fatalf("verdict calls=%d err=%v, want one quorum", calls, res.Err)
			}
			if res.Acks != 2 || res.Copies != 5 {
				t.Fatalf("verdict acks=%d copies=%d, want 2 of 5 (W=2 handed off)", res.Acks, res.Copies)
			}
			if *count != 1 {
				t.Fatalf("hand-off counter = %d, want 1 for the timer", *count)
			}
			if got := c.Nodes[dead].Served() + c.Nodes[dead].Refused(); got != 0 {
				t.Fatalf("crashed ring node contacted %d times; handoffs skip it", got)
			}
			for _, i := range []int{4, 5} {
				if got := c.Nodes[ringNode(c, key, i)].Served(); got != 1 {
					t.Fatalf("ring node %d served %d, want 1 handoff", i, got)
				}
			}
			if got := c.Nodes[ringNode(c, key, 6)].Served(); got != 0 {
				t.Fatalf("ring node 6 served %d; only W - acks = 2 copies go out", got)
			}
			if pc.Acks != 5 || pc.WastedWrites != 2 {
				t.Fatalf("acks=%d wasted=%d, want 5 acks and the 2 late hand-offs wasted",
					pc.Acks, pc.WastedWrites)
			}
			checkConserved(t, pc)
		})
	}
}

// TestMittOSPutFailoverKeepsDeadline: an EBUSY copy fails over to the next
// ring node at once and still carries the deadline, so a contended ring node
// rejects it too.
func TestMittOSPutFailoverKeepsDeadline(t *testing.T) {
	const key = 0
	c := newPutCluster(t, 4, true)
	busy, ring := c.ReplicasFor(key)[0], ringNode(c, key, 3)
	c.Nodes[busy].MittCFQ.SetMiscalibration(100*time.Millisecond, 0)
	c.Nodes[ring].MittCFQ.SetMiscalibration(100*time.Millisecond, 0)
	s := &MittOSPut{C: c, Deadline: 10 * time.Millisecond}
	res := putOnce(t, c, s, key)
	if res.Err != nil {
		t.Fatalf("err = %v", res.Err)
	}
	if s.Failovers != 1 || s.LastDitch != 0 {
		t.Fatalf("failovers=%d lastditch=%d, want 1 and 0", s.Failovers, s.LastDitch)
	}
	if got := c.Nodes[ring].Rejected(); got != 1 {
		t.Fatalf("ring node rejected %d, want 1: the failover copy keeps its deadline", got)
	}
	if s.CopiesSent != 4 || s.Busy != 2 || s.Acks != 2 {
		t.Fatalf("counters %+v, want 4 copies, 2 busy, 2 acks", s.PutCounters)
	}
	checkConserved(t, &s.PutCounters)
}

// TestMittOSPutLastDitch: with every node rejecting and the ring exhausted,
// the last-ditch copies go out with deadline 0 (so they are admitted), least
// predicted wait first under UseWaitHint, skipping a rejector that crashed
// after it answered.
func TestMittOSPutLastDitch(t *testing.T) {
	const key = 0
	for _, crash := range []bool{false, true} {
		name := "AllLive"
		if crash {
			name = "CrashedRejector"
		}
		t.Run(name, func(t *testing.T) {
			c := newPutCluster(t, 4, true)
			rs := c.ReplicasFor(key)
			ring := ringNode(c, key, 3)
			// Predicted waits, by construction: rs[1] < ring < rs[2] < rs[0].
			bias := map[int]time.Duration{rs[0]: 400, rs[1]: 100, rs[2]: 300, ring: 200}
			for n, b := range bias {
				c.Nodes[n].MittCFQ.SetMiscalibration(b*time.Millisecond, 0)
			}
			s := &MittOSPut{C: c, Deadline: 10 * time.Millisecond, UseWaitHint: true}
			calls := 0
			var res PutResult
			s.Put(key, func(r PutResult) { res = r; calls++ })
			if crash {
				for c.Nodes[rs[1]].Rejected() == 0 && c.Eng.Step() {
				}
				c.Nodes[rs[1]].Crash()
			}
			c.Eng.RunFor(5 * time.Second)
			if calls != 1 || res.Err != nil {
				t.Fatalf("verdict calls=%d err=%v; last-ditch copies have no deadline", calls, res.Err)
			}
			if s.Failovers != 1 || s.LastDitch != 2 {
				t.Fatalf("failovers=%d lastditch=%d, want 1 and 2", s.Failovers, s.LastDitch)
			}
			// The last-ditch targets are the nodes that served one copy more
			// than they rejected.
			want := []int{rs[1], ring}
			if crash {
				want = []int{ring, rs[2]}
				if got := c.Nodes[rs[1]].Refused(); got != 0 {
					t.Fatalf("crashed rejector contacted again (%d refusals)", got)
				}
			}
			for _, n := range []int{rs[0], rs[1], rs[2], ring} {
				target := n == want[0] || n == want[1]
				extra := c.Nodes[n].Served() - c.Nodes[n].Rejected()
				if (extra == 1) != target || extra > 1 {
					t.Fatalf("node %d served %d, rejected %d; last-ditch targets %v",
						n, c.Nodes[n].Served(), c.Nodes[n].Rejected(), want)
				}
			}
			if s.Busy != 4 || s.Acks != 2 || s.CopiesSent != 6 {
				t.Fatalf("counters %+v, want 4 busy, 2 acks, 6 copies", s.PutCounters)
			}
			checkConserved(t, &s.PutCounters)
		})
	}
}

// TestEveryPutStrategyVsWholeSetDown: with every node down each strategy
// delivers exactly one ErrQuorumFailed and the counters still conserve.
func TestEveryPutStrategyVsWholeSetDown(t *testing.T) {
	cases := []struct {
		name string
		make func(c *Cluster) (PutStrategy, *PutCounters)
	}{
		{"Base", func(c *Cluster) (PutStrategy, *PutCounters) {
			s := &BasePut{C: c}
			return s, &s.PutCounters
		}},
		{"AppTO", func(c *Cluster) (PutStrategy, *PutCounters) {
			s := &TimeoutPut{C: c, TO: 15 * time.Millisecond}
			return s, &s.PutCounters
		}},
		{"Hedged", func(c *Cluster) (PutStrategy, *PutCounters) {
			s := &HedgedPut{C: c, HedgeAfter: 20 * time.Millisecond}
			return s, &s.PutCounters
		}},
		{"MittOS", func(c *Cluster) (PutStrategy, *PutCounters) {
			s := &MittOSPut{C: c, Deadline: 10 * time.Millisecond, UseWaitHint: true}
			return s, &s.PutCounters
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newPutCluster(t, 5, true)
			for _, n := range c.Nodes {
				n.Crash()
			}
			ps, pc := tc.make(c)
			res := putOnce(t, c, ps, 0)
			if !errors.Is(res.Err, ErrQuorumFailed) {
				t.Fatalf("err = %v, want ErrQuorumFailed", res.Err)
			}
			if pc.Failed != 1 || pc.Quorums != 0 || pc.NodeDown != 3 || pc.CopiesSent != 3 {
				t.Fatalf("counters %+v, want one failure from 3 refused copies", *pc)
			}
			checkConserved(t, pc)
		})
	}
}
