package iosched

import (
	"time"

	"mittos/internal/blockio"
)

// The walking oracles: CFQ's O(P) walk of the nodes ahead, which
// AheadCharge and IsAheadOf answer in O(log P) from the augmented service
// trees, and the in-order walks of the service and sort trees it needs.
// Only the tests and the fuzzers call them.

// PendingOf returns the number of queued IOs of one process.
func (c *CFQ) PendingOf(proc int) int {
	if n := c.lookup(proc); n != nil {
		return n.tree.Len()
	}
	return 0
}

// ProcsAheadOf returns the process IDs whose queued IOs CFQ would service
// before a newly arriving IO from `proc` at (class, prio) — the O(P) walk
// of §4.2, kept as the oracle AheadCharge and IsAheadOf are verified
// against. The order is: the active node, nodes of higher classes, then
// same-class nodes ahead in round-robin order.
func (c *CFQ) ProcsAheadOf(proc int, class blockio.Class) []int {
	var ahead []int
	// The active node counts only when the newcomer cannot preempt it: a
	// higher-class arrival takes over at the next dispatch decision, so
	// only the active node's device-resident IOs (accounted separately by
	// the caller) delay it.
	rank := class.Rank()
	if c.active != nil && c.active.proc != proc && c.active.tree.Len() > 0 &&
		rank >= c.active.class.Rank() {
		ahead = append(ahead, c.active.proc)
	}
	var procKey uint64
	procOn := false
	if pn := c.lookup(proc); pn != nil && pn.st != nil && pn.stRank == rank {
		procKey, procOn = pn.st.key, true
	}
	for r := 0; r <= rank; r++ {
		for x := c.st[r].first(); x != nil; x = stNext(x) {
			n := x.pn
			if n.proc == proc || n.tree.Len() == 0 {
				continue
			}
			if r < rank || !procOn || x.key < procKey {
				ahead = append(ahead, n.proc)
			}
		}
	}
	return ahead
}

// NodeSlice returns the time slice the proc's node currently earns — the
// bound on how long one node can hold the device per round.
func (c *CFQ) NodeSlice(proc int) time.Duration {
	if n := c.lookup(proc); n != nil {
		return c.cfg.Slice(n.prio)
	}
	return c.cfg.Slice(4)
}

// EachQueued visits every queued request of a process in offset order.
func (c *CFQ) EachQueued(proc int, fn func(*blockio.Request) bool) {
	if n := c.lookup(proc); n != nil {
		n.tree.Each(fn)
	}
}

// first returns the head of the round-robin order, or nil.
func (t *serviceTree) first() *stNode {
	n := t.root
	if n == nil {
		return nil
	}
	for n.left != nil {
		n = n.left
	}
	return n
}

// stNext returns x's in-order successor, or nil.
func stNext(x *stNode) *stNode {
	if x.right != nil {
		x = x.right
		for x.left != nil {
			x = x.left
		}
		return x
	}
	for x.parent != nil && x == x.parent.right {
		x = x.parent
	}
	return x.parent
}

// Each visits requests in ascending offset order; return false to stop.
func (t *rbTree) Each(fn func(*blockio.Request) bool) {
	var walk func(n *rbNode) bool
	walk = func(n *rbNode) bool {
		if n == nil {
			return true
		}
		if !walk(n.left) {
			return false
		}
		if !fn(n.req) {
			return false
		}
		return walk(n.right)
	}
	walk(t.root)
}
