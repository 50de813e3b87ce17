package iosched

import (
	"sort"
	"testing"
	"testing/quick"

	"mittos/internal/blockio"
)

func req(off int64) *blockio.Request {
	return &blockio.Request{Op: blockio.Read, Offset: off, Size: 4096}
}

func TestRBTreeInsertAscendingIteration(t *testing.T) {
	var tr rbTree
	offs := []int64{50, 10, 90, 30, 70, 20, 80, 40, 60, 0}
	for _, o := range offs {
		tr.Insert(req(o))
	}
	if tr.Len() != len(offs) {
		t.Fatalf("Len = %d", tr.Len())
	}
	var got []int64
	tr.Each(func(r *blockio.Request) bool {
		got = append(got, r.Offset)
		return true
	})
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("iteration not sorted: %v", got)
	}
}

func TestRBTreeMinPopMin(t *testing.T) {
	var tr rbTree
	for _, o := range []int64{5, 3, 8, 1, 9} {
		tr.Insert(req(o))
	}
	if tr.Min().Offset != 1 {
		t.Fatalf("Min = %d", tr.Min().Offset)
	}
	want := []int64{1, 3, 5, 8, 9}
	for _, w := range want {
		r := tr.PopMin()
		if r.Offset != w {
			t.Fatalf("PopMin = %d, want %d", r.Offset, w)
		}
	}
	if tr.PopMin() != nil || tr.Min() != nil {
		t.Fatal("empty tree should return nil")
	}
}

func TestRBTreeDuplicateOffsets(t *testing.T) {
	var tr rbTree
	a, b, c := req(42), req(42), req(42)
	tr.Insert(a)
	tr.Insert(b)
	tr.Insert(c)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d with duplicates", tr.Len())
	}
	if !tr.Remove(b) {
		t.Fatal("failed to remove middle duplicate")
	}
	if tr.Remove(b) {
		t.Fatal("double remove succeeded")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d after removal", tr.Len())
	}
	seen := map[*blockio.Request]bool{}
	tr.Each(func(r *blockio.Request) bool { seen[r] = true; return true })
	if !seen[a] || !seen[c] || seen[b] {
		t.Fatal("wrong survivors after duplicate removal")
	}
}

func TestRBTreeCeilingFrom(t *testing.T) {
	var tr rbTree
	for _, o := range []int64{10, 20, 30} {
		tr.Insert(req(o))
	}
	cases := []struct {
		from int64
		want int64
	}{{0, 10}, {10, 10}, {11, 20}, {25, 30}, {30, 30}}
	for _, c := range cases {
		got := tr.CeilingFrom(c.from)
		if got == nil || got.Offset != c.want {
			t.Fatalf("CeilingFrom(%d) = %v, want %d", c.from, got, c.want)
		}
	}
	if tr.CeilingFrom(31) != nil {
		t.Fatal("CeilingFrom past max should be nil")
	}
}

func TestRBTreeEachEarlyStop(t *testing.T) {
	var tr rbTree
	for i := int64(0); i < 10; i++ {
		tr.Insert(req(i))
	}
	count := 0
	tr.Each(func(*blockio.Request) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestRBTreeRemoveMissing(t *testing.T) {
	var tr rbTree
	tr.Insert(req(1))
	if tr.Remove(req(1)) {
		t.Fatal("removed a request that was never inserted (identity match required)")
	}
}

func TestPropertyRBTreeInvariantsUnderInsertDelete(t *testing.T) {
	f := func(ops []int16) bool {
		var tr rbTree
		live := map[int64][]*blockio.Request{}
		n := 0
		for _, op := range ops {
			off := int64(op % 64)
			if off < 0 {
				off = -off
			}
			if op >= 0 {
				r := req(off)
				tr.Insert(r)
				live[off] = append(live[off], r)
				n++
			} else if rs := live[off]; len(rs) > 0 {
				r := rs[len(rs)-1]
				live[off] = rs[:len(rs)-1]
				if !tr.Remove(r) {
					return false
				}
				n--
			}
			if tr.Len() != n {
				return false
			}
			if tr.checkInvariants() < 0 {
				return false
			}
		}
		// Final iteration must be sorted and complete.
		var got []int64
		tr.Each(func(r *blockio.Request) bool { got = append(got, r.Offset); return true })
		if len(got) != n {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPopMinDrainsSorted(t *testing.T) {
	f := func(offs []uint16) bool {
		var tr rbTree
		for _, o := range offs {
			tr.Insert(req(int64(o)))
		}
		prev := int64(-1)
		for tr.Len() > 0 {
			r := tr.PopMin()
			if r.Offset < prev {
				return false
			}
			prev = r.Offset
			if tr.checkInvariants() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants validates red-black properties.
// It returns the black-height, or -1 on violation.
func (t *rbTree) checkInvariants() int {
	if colorOf(t.root) != rbBlack {
		return -1
	}
	var check func(n *rbNode) int
	check = func(n *rbNode) int {
		if n == nil {
			return 1
		}
		if n.color == rbRed && (colorOf(n.left) == rbRed || colorOf(n.right) == rbRed) {
			return -1
		}
		if n.left != nil && !n.left.key.less(n.key) {
			return -1
		}
		if n.right != nil && !n.key.less(n.right.key) {
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
