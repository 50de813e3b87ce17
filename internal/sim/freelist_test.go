package sim

import "testing"

// pooled counts its Bind calls; fn stands in for a pre-bound callback.
type pooled struct {
	binds int
	fn    func()
}

func (p *pooled) Bind() {
	p.binds++
	p.fn = p.fire
}

func (p *pooled) fire() {}

func TestFreelistLIFO(t *testing.T) {
	var f Freelist[pooled]
	a, b, c := Acquire(&f), Acquire(&f), Acquire(&f)
	f.Release(a)
	f.Release(b)
	f.Release(c)
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	for i, want := range []*pooled{c, b, a} {
		if got := Acquire(&f); got != want {
			t.Fatalf("acquire %d returned %p, want %p (LIFO)", i, got, want)
		}
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", f.Len())
	}
}

func TestFreelistBindOncePerAllocation(t *testing.T) {
	var f Freelist[pooled]
	x := Acquire(&f)
	if x.binds != 1 || x.fn == nil {
		t.Fatalf("fresh object: binds = %d, fn bound = %v", x.binds, x.fn != nil)
	}
	for i := 0; i < 5; i++ {
		f.Release(x)
		if y := Acquire(&f); y != x {
			t.Fatalf("reuse %d returned a different object", i)
		}
	}
	if x.binds != 1 {
		t.Fatalf("Bind ran %d times over one allocation and five reuses, want 1", x.binds)
	}
	y := Acquire(&f) // the list is empty: a second allocation
	if y == x || y.binds != 1 {
		t.Fatalf("second allocation: same object %v, binds = %d", y == x, y.binds)
	}
}

func TestFreelistOutCountsUnreturned(t *testing.T) {
	var f Freelist[pooled]
	if f.Out() != 0 {
		t.Fatalf("zero Freelist: Out = %d", f.Out())
	}
	xs := []*pooled{Acquire(&f), Acquire(&f), Acquire(&f)}
	if f.Out() != 3 {
		t.Fatalf("after 3 acquires: Out = %d, want 3", f.Out())
	}
	f.Release(xs[1])
	if f.Out() != 2 || f.Len() != 1 {
		t.Fatalf("after 1 release: Out = %d, Len = %d, want 2, 1", f.Out(), f.Len())
	}
	Acquire(&f) // reuse counts as out again
	if f.Out() != 3 || f.Len() != 0 {
		t.Fatalf("after reuse: Out = %d, Len = %d, want 3, 0", f.Out(), f.Len())
	}
}

func TestFreelistWarmCycleAllocatesNothing(t *testing.T) {
	var f Freelist[pooled]
	f.Release(Acquire(&f))
	allocs := testing.AllocsPerRun(1000, func() {
		x := Acquire(&f)
		x.fn()
		f.Release(x)
	})
	if allocs != 0 {
		t.Fatalf("warm acquire/release: %v allocs per cycle, want 0", allocs)
	}
}
