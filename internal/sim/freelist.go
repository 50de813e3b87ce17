package sim

// Freelist is the pool behind every pooled per-IO context: Acquire pops a
// recycled object or allocates one, Release pushes it back once its last
// callback has fired. Pop order is LIFO, so reuse order is deterministic.
// Out counts objects handed out and not yet returned, so a drained layer
// can be checked for leaks. Like everything driven by one Engine, a
// Freelist is used from a single goroutine and needs no locking.
type Freelist[T any] struct {
	free []*T
	out  int
}

// Binder is a pooled context that binds its callback fields once, at
// allocation, so reusing it costs no closure allocations.
type Binder[T any] interface {
	*T
	Bind()
}

// Acquire pops a pooled context, or allocates and binds a fresh one. The
// caller rebinds the owner.
func Acquire[T any, P Binder[T]](f *Freelist[T]) P {
	f.out++
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return P(x)
	}
	x := P(new(T))
	x.Bind()
	return x
}

// Release returns a context to its pool; it must not be touched after.
func (f *Freelist[T]) Release(x *T) {
	f.out--
	f.free = append(f.free, x)
}

// Out reports how many objects are acquired and not yet released.
func (f *Freelist[T]) Out() int { return f.out }

// Len reports how many released objects are parked for reuse.
func (f *Freelist[T]) Len() int { return len(f.free) }
