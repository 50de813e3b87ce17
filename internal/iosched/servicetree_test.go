package iosched

import (
	"testing"
	"time"
)

// naivePrefix walks the tree in round-robin order summing contribs until it
// reaches target — the reference for prefixBefore.
func naivePrefix(t *serviceTree, target *procNode) time.Duration {
	var sum time.Duration
	t.each(func(pn *procNode) bool {
		if pn == target {
			return false
		}
		sum += pn.contrib
		return true
	})
	return sum
}

func naiveTotal(t *serviceTree) time.Duration {
	var sum time.Duration
	t.each(func(pn *procNode) bool { sum += pn.contrib; return true })
	return sum
}

func TestServiceTreeAppendPopFIFO(t *testing.T) {
	var st serviceTree
	var seq uint64
	var order []*procNode
	for i := 0; i < 60; i++ {
		pn := &procNode{proc: i, contrib: time.Duration(i%7+1) * time.Millisecond}
		seq++
		st.append(pn, seq)
		order = append(order, pn)
		if st.checkAggregates() < 0 {
			t.Fatalf("aggregates broken after append %d", i)
		}
		if st.total() != naiveTotal(&st) {
			t.Fatalf("total()=%v, naive=%v after append %d", st.total(), naiveTotal(&st), i)
		}
	}
	if st.size != 60 {
		t.Fatalf("size = %d, want 60", st.size)
	}
	for i, want := range order {
		got := st.popMin()
		if got != want {
			t.Fatalf("popMin %d returned proc %d, want %d (FIFO)", i, got.proc, want.proc)
		}
		if got.st != nil {
			t.Fatalf("popped node still points at a tree slot")
		}
		if st.checkAggregates() < 0 {
			t.Fatalf("aggregates broken after pop %d", i)
		}
	}
	if st.popMin() != nil || st.size != 0 || st.total() != 0 {
		t.Fatal("tree not empty after drain")
	}
}

// TestServiceTreeRotationAggregates exercises the rotation paths hard:
// monotonic appends descend the right spine, so every insertFixup rotates,
// and interleaved pops exercise deleteFixup. The subtree sums and every
// prefix query must survive each restructure.
func TestServiceTreeRotationAggregates(t *testing.T) {
	var st serviceTree
	var seq uint64
	live := map[*procNode]bool{}
	checkAll := func(op string) {
		t.Helper()
		if st.checkAggregates() < 0 {
			t.Fatalf("%s: invariants violated (size %d)", op, st.size)
		}
		if st.total() != naiveTotal(&st) {
			t.Fatalf("%s: total mismatch", op)
		}
		for pn := range live {
			if got, want := st.prefixBefore(pn.st), naivePrefix(&st, pn); got != want {
				t.Fatalf("%s: prefixBefore(proc %d) = %v, naive %v", op, pn.proc, got, want)
			}
		}
	}
	for i := 0; i < 200; i++ {
		pn := &procNode{proc: i, contrib: time.Duration(i%13) * time.Millisecond}
		seq++
		st.append(pn, seq)
		live[pn] = true
		checkAll("append")
		if i%3 == 2 {
			popped := st.popMin()
			delete(live, popped)
			checkAll("popMin")
		}
		if i%5 == 4 {
			// In-place contrib change with delta propagation.
			var victim *procNode
			for pn := range live {
				victim = pn
				break
			}
			delta := time.Duration(i%9-4) * time.Millisecond
			if victim.contrib+delta < 0 {
				delta = -victim.contrib
			}
			victim.contrib += delta
			st.update(victim.st, delta)
			checkAll("update")
		}
	}
	for st.size > 0 {
		delete(live, st.popMin())
		checkAll("drain")
	}
}

func TestServiceTreeNodeRecycling(t *testing.T) {
	var st serviceTree
	var seq uint64
	// Fill and drain twice: the second round must reuse freelist nodes
	// without stale state leaking through.
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			seq++
			st.append(&procNode{proc: i, contrib: time.Millisecond}, seq)
		}
		if st.total() != 20*time.Millisecond {
			t.Fatalf("round %d: total = %v", round, st.total())
		}
		for st.size > 0 {
			st.popMin()
			if st.checkAggregates() < 0 {
				t.Fatalf("round %d: invariants violated on drain", round)
			}
		}
	}
}

// each visits process nodes in round-robin order; return false to stop.
func (t *serviceTree) each(fn func(*procNode) bool) bool {
	var walk func(n *stNode) bool
	walk = func(n *stNode) bool {
		if n == nil {
			return true
		}
		return walk(n.left) && fn(n.pn) && walk(n.right)
	}
	return walk(t.root)
}

// checkAggregates validates red-black shape, key order, and the subtree-sum
// invariant. Returns the black-height or -1 on any violation.
func (t *serviceTree) checkAggregates() int {
	if stColor(t.root) != rbBlack {
		return -1
	}
	var check func(n *stNode) int
	check = func(n *stNode) int {
		if n == nil {
			return 1
		}
		if n.color == rbRed && (stColor(n.left) == rbRed || stColor(n.right) == rbRed) {
			return -1
		}
		if n.left != nil && n.left.key >= n.key {
			return -1
		}
		if n.right != nil && n.right.key <= n.key {
			return -1
		}
		if n.sum != stSum(n.left)+stSum(n.right)+n.pn.contrib {
			return -1
		}
		if n.pn.st != n {
			return -1
		}
		lh := check(n.left)
		rh := check(n.right)
		if lh < 0 || rh < 0 || lh != rh {
			return -1
		}
		if n.color == rbBlack {
			return lh + 1
		}
		return lh
	}
	return check(t.root)
}
