// Augmented red-black service tree: the per-class round-robin of CFQ process
// nodes, keyed by a monotonically increasing arrival sequence (so in-order
// traversal is exactly the old slice-based round-robin order), with each
// tree node carrying the sum of its subtree's slice-clamped predicted IO
// totals (procNode.contrib). The aggregate turns MittCFQ's O(P)
// "sum the nodes ahead" admission walk into one O(log P) prefix query:
//
//	sum(nodes before X in RR order) = prefixBefore(X)
//	sum(all nodes on the tree)      = total()
//
// The invariant — n.sum == sum(left) + sum(right) + n.pn.contrib — is
// maintained on append (path update on the way down), popMin (ancestor
// subtraction before splice), contrib changes (delta propagation to the
// root), and rotations (bottom-up recompute from children), and is checked
// exhaustively by FuzzCFQAggregates.
package iosched

import "time"

// stNode is one service-tree slot holding a process node.
type stNode struct {
	key    uint64
	pn     *procNode
	sum    time.Duration // subtree aggregate of pn.contrib
	color  rbColor
	left   *stNode
	right  *stNode
	parent *stNode
}

// serviceTree is one class's round-robin of process nodes.
type serviceTree struct {
	root *stNode
	size int
	free *stNode // recycled nodes, chained via right
}

func stSum(n *stNode) time.Duration {
	if n == nil {
		return 0
	}
	return n.sum
}

func stColor(n *stNode) rbColor {
	if n == nil {
		return rbBlack
	}
	return n.color
}

func (t *serviceTree) getNode() *stNode {
	if n := t.free; n != nil {
		t.free = n.right
		*n = stNode{}
		return n
	}
	return &stNode{}
}

func (t *serviceTree) putNode(n *stNode) {
	*n = stNode{}
	n.right = t.free
	t.free = n
}

// append inserts pn at the tail of the round-robin. key must exceed every
// key already in the tree (the caller's monotonic sequence guarantees it),
// so the insert always descends the right spine.
func (t *serviceTree) append(pn *procNode, key uint64) {
	n := t.getNode()
	n.key, n.pn, n.color, n.sum = key, pn, rbRed, pn.contrib
	t.size++
	pn.st = n
	if t.root == nil {
		n.color = rbBlack
		t.root = n
		return
	}
	cur := t.root
	for {
		cur.sum += pn.contrib
		if cur.right == nil {
			cur.right = n
			n.parent = cur
			break
		}
		cur = cur.right
	}
	t.insertFixup(n)
}

// popMin removes and returns the head of the round-robin, or nil.
func (t *serviceTree) popMin() *procNode {
	if t.root == nil {
		return nil
	}
	z := t.root
	for z.left != nil {
		z = z.left
	}
	pn := z.pn
	for a := z.parent; a != nil; a = a.parent {
		a.sum -= pn.contrib
	}
	t.size--
	x, xParent := z.right, z.parent
	t.transplant(z, z.right)
	if z.color == rbBlack {
		t.deleteFixup(x, xParent)
	}
	t.putNode(z)
	pn.st = nil
	return pn
}

// update adds delta to n's aggregate and every ancestor's — called when a
// member node's contrib changes in place.
func (t *serviceTree) update(n *stNode, delta time.Duration) {
	for ; n != nil; n = n.parent {
		n.sum += delta
	}
}

// prefixBefore returns the contrib sum of every node ordered before x —
// the nodes CFQ's round-robin serves ahead of x's process.
func (t *serviceTree) prefixBefore(x *stNode) time.Duration {
	sum := stSum(x.left)
	for x.parent != nil {
		if x == x.parent.right {
			sum += x.parent.pn.contrib + stSum(x.parent.left)
		}
		x = x.parent
	}
	return sum
}

// total returns the contrib sum of every node on the tree.
func (t *serviceTree) total() time.Duration { return stSum(t.root) }

func (t *serviceTree) transplant(u, v *stNode) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

// rotateLeft rotates x down-left and recomputes the two changed aggregates
// bottom-up (x first — it becomes the child).
func (t *serviceTree) rotateLeft(x *stNode) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
	x.sum = stSum(x.left) + stSum(x.right) + x.pn.contrib
	y.sum = stSum(y.left) + stSum(y.right) + y.pn.contrib
}

func (t *serviceTree) rotateRight(x *stNode) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
	x.sum = stSum(x.left) + stSum(x.right) + x.pn.contrib
	y.sum = stSum(y.left) + stSum(y.right) + y.pn.contrib
}

func (t *serviceTree) insertFixup(n *stNode) {
	for n.parent != nil && n.parent.color == rbRed {
		gp := n.parent.parent
		if n.parent == gp.left {
			uncle := gp.right
			if uncle != nil && uncle.color == rbRed {
				n.parent.color = rbBlack
				uncle.color = rbBlack
				gp.color = rbRed
				n = gp
			} else {
				if n == n.parent.right {
					n = n.parent
					t.rotateLeft(n)
				}
				n.parent.color = rbBlack
				gp.color = rbRed
				t.rotateRight(gp)
			}
		} else {
			uncle := gp.left
			if uncle != nil && uncle.color == rbRed {
				n.parent.color = rbBlack
				uncle.color = rbBlack
				gp.color = rbRed
				n = gp
			} else {
				if n == n.parent.left {
					n = n.parent
					t.rotateRight(n)
				}
				n.parent.color = rbBlack
				gp.color = rbRed
				t.rotateLeft(gp)
			}
		}
	}
	t.root.color = rbBlack
}

func (t *serviceTree) deleteFixup(x *stNode, parent *stNode) {
	for x != t.root && stColor(x) == rbBlack {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if stColor(w) == rbRed {
				w.color = rbBlack
				parent.color = rbRed
				t.rotateLeft(parent)
				w = parent.right
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if stColor(w.left) == rbBlack && stColor(w.right) == rbBlack {
				w.color = rbRed
				x = parent
				parent = x.parent
			} else {
				if stColor(w.right) == rbBlack {
					if w.left != nil {
						w.left.color = rbBlack
					}
					w.color = rbRed
					t.rotateRight(w)
					w = parent.right
				}
				w.color = parent.color
				parent.color = rbBlack
				if w.right != nil {
					w.right.color = rbBlack
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if stColor(w) == rbRed {
				w.color = rbBlack
				parent.color = rbRed
				t.rotateRight(parent)
				w = parent.left
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if stColor(w.right) == rbBlack && stColor(w.left) == rbBlack {
				w.color = rbRed
				x = parent
				parent = x.parent
			} else {
				if stColor(w.left) == rbBlack {
					if w.right != nil {
						w.right.color = rbBlack
					}
					w.color = rbRed
					t.rotateLeft(w)
					w = parent.left
				}
				w.color = parent.color
				parent.color = rbBlack
				if w.left != nil {
					w.left.color = rbBlack
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.color = rbBlack
	}
}
