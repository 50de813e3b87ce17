package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/netsim"
	"mittos/internal/noise"
	"mittos/internal/sim"
)

// TestServeReuseAfterCancel exercises the request pool's revocation path:
// cancel a queued serve, then keep issuing gets through the same node. A
// double release or a use-after-recycle panics (generation guard) or
// corrupts a later get's result.
func TestServeReuseAfterCancel(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	n := c.Nodes[0]

	// Queue depth so cancels land while requests still sit in the
	// scheduler (a busy spindle keeps the queue non-empty).
	st := noise.NewSteady(c.Eng, n.NoiseSink(), sim.NewRNG(5, "noise"),
		blockio.Read, 1<<20, 10, blockio.ClassBestEffort, 4, 99, 500<<30)
	st.Start()
	c.Eng.RunFor(50 * time.Millisecond)

	canceled, completed := 0, 0
	for i := 0; i < 50; i++ {
		key := int64(i % 100)
		if i%2 == 0 {
			h := n.ServeGetCancelable(key, 0, func(err error) {
				if err == nil {
					completed++
				}
			})
			// Cancel immediately: the IO is still queued behind the noise.
			h.Cancel()
			h.Done()
			canceled++
			// Cancel again after release: the generation guard must make
			// this a no-op rather than revoking a recycled request.
			h.Cancel()
		} else {
			n.ServeGet(key, 0, func(err error) {
				if err == nil {
					completed++
				}
			})
		}
		c.Eng.RunFor(5 * time.Millisecond)
	}
	st.Stop()
	c.Eng.RunFor(10 * time.Second)

	// Every non-canceled get must complete; canceled ones may or may not,
	// depending on whether the cancel beat dispatch.
	if completed < 25 {
		t.Fatalf("completed %d gets, want at least the 25 uncanceled ones", completed)
	}
	_ = canceled
}

// TestTiedRevokeThenComplete drives the tied-request protocol until losers
// are being revoked while winners complete, then verifies the node still
// serves correctly — i.e. the revoked terminal released each pooled
// request exactly once and recycling did not corrupt later IOs.
func TestTiedRevokeThenComplete(t *testing.T) {
	c := newTestCluster(t, 3, false, 10000)
	busy := c.ReplicasFor(0)[0]
	st := noise.NewSteady(c.Eng, c.Nodes[busy].NoiseSink(), sim.NewRNG(5, "noise"),
		blockio.Read, 1<<20, 10, blockio.ClassBestEffort, 4, 99, 500<<30)
	st.Start()
	c.Eng.RunFor(100 * time.Millisecond)

	s := &TiedStrategy{C: c, RNG: sim.NewRNG(3, "tied"), Delay: time.Millisecond}
	done := 0
	for i := 0; i < 30; i++ {
		s.Get(0, func(r GetResult) {
			if r.Err != nil {
				t.Fatalf("tied get failed: %v", r.Err)
			}
			done++
		})
		c.Eng.RunFor(50 * time.Millisecond)
	}
	st.Stop()
	c.Eng.RunFor(5 * time.Second)

	if done != 30 {
		t.Fatalf("completed %d of 30 tied gets", done)
	}
	if s.Cancelled == 0 {
		t.Fatal("no sibling revocations happened; the revoke-then-complete path was not exercised")
	}

	// The pool must still be coherent: a fresh burst of plain gets on the
	// previously-busy node completes cleanly on recycled requests.
	after := 0
	for i := 0; i < 20; i++ {
		c.Nodes[busy].ServeGet(int64(i), 0, func(err error) {
			if err == nil {
				after++
			}
		})
	}
	c.Eng.RunFor(5 * time.Second)
	if after != 20 {
		t.Fatalf("post-revocation gets completed %d of 20", after)
	}
}

// checkDrained asserts a freelist got back everything it handed out, each
// object exactly once. It acquires every parked object back to compare
// their pointers, then releases them in reverse so the pool's LIFO order
// is what it was.
func checkDrained[T any, P sim.Binder[T]](t *testing.T, leg, name string, f *sim.Freelist[T]) {
	t.Helper()
	if n := f.Out(); n != 0 {
		t.Errorf("%s: %s has %d objects outstanding after the drain", leg, name, n)
	}
	parked := make([]*T, f.Len())
	seen := make(map[*T]bool, len(parked))
	for i := range parked {
		x := (*T)(sim.Acquire[T, P](f))
		if seen[x] {
			t.Errorf("%s: %s holds %p twice (double release)", leg, name, x)
		}
		seen[x] = true
		parked[i] = x
	}
	for i := len(parked) - 1; i >= 0; i-- {
		f.Release(parked[i])
	}
}

// TestClientOpsReturnToPools runs every pooled get and put strategy through
// a leg with one contended replica and a mid-run crash, drains the leg the
// way an experiment arena tears down (ReclaimStranded on every node), and
// checks that every freelist in the shared Pools got each object back
// exactly once. One Pools bundle carries across the legs, as it does
// across an arena's legs.
func TestClientOpsReturnToPools(t *testing.T) {
	pools := &Pools{}
	check := func(leg string) {
		t.Helper()
		checkDrained(t, leg, "serves", &pools.serves)
		checkDrained(t, leg, "handles", &pools.handles)
		checkDrained(t, leg, "calls", &pools.calls)
		checkDrained(t, leg, "getOps", &pools.getOps)
		checkDrained(t, leg, "getCopies", &pools.getCopies)
		checkDrained(t, leg, "putOps", &pools.putOps)
		checkDrained(t, leg, "putCopies", &pools.putCopies)
	}
	// Every freelist in Pools must be in the list above.
	lists := 0
	pt := reflect.TypeOf(Pools{})
	for i := 0; i < pt.NumField(); i++ {
		if strings.HasPrefix(pt.Field(i).Type.Name(), "Freelist[") {
			lists++
		}
	}
	if lists != 7 {
		t.Fatalf("Pools has %d freelists; check covers 7", lists)
	}

	const ops = 200
	leg := func(name string, issue func(c *Cluster, key int64, done func())) {
		eng := sim.NewEngine()
		net := netsim.New(eng, netsim.DefaultConfig(), sim.NewRNG(61, name+"-net"))
		tmpl := diskNodeTemplate(true, 10000)
		tmpl.Pools = pools
		c := NewCluster(eng, net, 5, 3, tmpl, sim.NewRNG(62, name))
		st := noise.NewSteady(eng, c.Nodes[0].NoiseSink(), sim.NewRNG(5, "noise"),
			blockio.Read, 1<<20, 4, blockio.ClassBestEffort, 4, 99, 500<<30)
		st.Start()
		finished := 0
		done := func() { finished++ }
		for i := 0; i < ops; i++ {
			key := int64(i)
			eng.After(time.Duration(i)*500*time.Microsecond, func() { issue(c, key, done) })
		}
		// Crash node 1 at the first 100µs tick past 30ms that finds serve
		// contexts in flight there, so the abort path runs too.
		inflight := false
		var crash func()
		crash = func() {
			inflight = c.Nodes[1].liveHead != nil
			if inflight || eng.Now() >= sim.Time(60*time.Millisecond) {
				c.Nodes[1].Crash()
				return
			}
			eng.After(100*time.Microsecond, crash)
		}
		eng.After(30*time.Millisecond, crash)
		eng.After(70*time.Millisecond, c.Nodes[1].Revive)
		eng.RunFor(150 * time.Millisecond)
		st.Stop()
		eng.RunFor(10 * time.Second)
		for _, n := range c.Nodes {
			n.ReclaimStranded()
		}
		if finished != ops {
			t.Errorf("%s: %d of %d ops finished", name, finished, ops)
		}
		if !inflight {
			t.Errorf("%s: the crash aborted nothing; the crash path was not exercised", name)
		}
		check(name)
	}

	gets := []struct {
		name string
		mk   func(c *Cluster) Strategy
	}{
		{"Base", func(c *Cluster) Strategy { return &BaseStrategy{C: c} }},
		{"AppTO", func(c *Cluster) Strategy { return &TimeoutStrategy{C: c, TO: 5 * time.Millisecond} }},
		{"Clone", func(c *Cluster) Strategy { return &CloneStrategy{C: c, RNG: sim.NewRNG(9, "clone")} }},
		{"Hedged", func(c *Cluster) Strategy { return &HedgedStrategy{C: c, HedgeAfter: 5 * time.Millisecond} }},
		{"Tied", func(c *Cluster) Strategy { return &TiedStrategy{C: c, RNG: sim.NewRNG(9, "tied")} }},
		{"Snitch", func(c *Cluster) Strategy { return &SnitchStrategy{C: c} }},
		{"C3", func(c *Cluster) Strategy { return &C3Strategy{C: c} }},
		{"MittOS", func(c *Cluster) Strategy {
			return &MittOSStrategy{C: c, Deadline: 10 * time.Millisecond, UseWaitHint: true}
		}},
		{"MittOS-consistent", func(c *Cluster) Strategy {
			return &ConsistentMittOSStrategy{C: c, Deadline: 10 * time.Millisecond}
		}},
	}
	for _, g := range gets {
		var s Strategy
		leg("get/"+g.name, func(c *Cluster, key int64, done func()) {
			if s == nil {
				s = g.mk(c)
			}
			s.Get(key, func(GetResult) { done() })
		})
	}
	puts := []struct {
		name string
		mk   func(c *Cluster) PutStrategy
	}{
		{"Base", func(c *Cluster) PutStrategy { return &BasePut{C: c} }},
		{"AppTO", func(c *Cluster) PutStrategy { return &TimeoutPut{C: c, TO: 5 * time.Millisecond} }},
		{"Hedged", func(c *Cluster) PutStrategy { return &HedgedPut{C: c, HedgeAfter: 5 * time.Millisecond} }},
		{"MittOS", func(c *Cluster) PutStrategy {
			return &MittOSPut{C: c, Deadline: 10 * time.Millisecond, UseWaitHint: true}
		}},
	}
	for _, p := range puts {
		var s PutStrategy
		leg("put/"+p.name, func(c *Cluster, key int64, done func()) {
			if s == nil {
				s = p.mk(c)
			}
			s.Put(key, func(PutResult) { done() })
		})
		checkConserved(t, s.Counters())
	}
	for name, n := range map[string]int{
		"serves": pools.serves.Len(), "handles": pools.handles.Len(),
		"calls": pools.calls.Len(), "getOps": pools.getOps.Len(),
		"getCopies": pools.getCopies.Len(), "putOps": pools.putOps.Len(),
		"putCopies": pools.putCopies.Len(),
	} {
		if n == 0 {
			t.Errorf("%s was never used; the legs do not cover it", name)
		}
	}
}
