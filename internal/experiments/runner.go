package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// The parallel experiment runner.
//
// Every experiment in this reproduction decomposes into *legs*: independent
// simulation runs that each build their own RNG streams and fleet, and
// communicate with the rest of the experiment only through variables the leg
// closure captures. Legs share no mutable state — the only package-level
// data they touch is sharedDiskProfile, which is computed once at init and
// read-only afterwards — so they can execute on any number of OS threads
// without changing a single output bit. Each engine itself stays
// single-threaded; parallelism exists only *between* engines.
//
// Each leg receives a worker-local legArena and is expected to build its
// fleets through it (a.newFleet); the runner resets the arena after every
// leg, so engines, context freelists, SSD devices, cache pages, and sample
// buffers are recycled instead of reallocated — the difference between an
// experiment-scale GC storm and a steady heap. Arena state never leaks into
// results: reset runs after the leg has copied its outputs, and pooled
// objects are fully reinitialized at acquire.
//
// Determinism is preserved by construction: a leg's result depends only on
// its inputs (options, seed, salt), and callers assemble Series/Tables in
// declaration order after runLegs returns, so the rendered Result is
// byte-identical whether legs ran serially or on eight workers.
// TestFig4ParallelDeterminism and TestConvertedExperimentsParallelDeterminism
// prove this rather than assert it; TestLegArenaReuse pins that arena reuse
// itself is invisible.
//
// Stages with data dependencies (e.g. every strategy run needing the
// baseline's p95) are expressed as consecutive runLegs calls: runLegs is a
// barrier, so a later stage may read anything an earlier stage wrote.

// legs is an ordered slice of self-contained experiment legs.
type legs []func(*legArena)

// add appends a leg; sugar that keeps call sites tidy.
func (l *legs) add(fn func(*legArena)) { *l = append(*l, fn) }

// resolveWorkers maps the Options.Workers convention (0 = one worker per
// CPU) to a concrete pool size.
func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// runLegs executes every leg on a bounded worker pool and returns once all
// have finished. Legs are handed to workers in declaration order; with
// workers ≤ 1 they run inline, which is the reference serial schedule the
// determinism tests compare against. Each worker owns one arena for its
// lifetime and resets it between legs. A panicking leg does not kill the
// pool's goroutine silently: the first panic is captured, with the leg's
// index and the stack it panicked on, and re-raised on the calling
// goroutine after the pool drains. An arena whose leg panicked is discarded
// rather than returned to the pool — its engine may be mid-run, so it
// cannot be safely reset.
func runLegs(workers int, ls legs) {
	workers = resolveWorkers(workers)
	if workers > len(ls) {
		workers = len(ls)
	}
	if workers <= 1 {
		a := acquireArena()
		for i := range ls {
			if msg := runLeg(ls, i, a); msg != "" {
				panic(msg) // the dirty arena is dropped
			}
			a.reset()
		}
		releaseArena(a)
		return
	}
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		first     string
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := acquireArena()
			for i := range work {
				if msg := runLeg(ls, i, a); msg != "" {
					panicOnce.Do(func() { first = msg })
					// The arena's engine may still hold the panicked leg's
					// state; start the worker over on a fresh one.
					a = acquireArena()
					continue
				}
				a.reset()
			}
			releaseArena(a)
		}()
	}
	for i := range ls {
		work <- i
	}
	close(work)
	wg.Wait()
	if first != "" {
		panic(first)
	}
}

// runLeg runs leg i on a. If the leg panics, it returns a message naming
// the leg, the panic value and the stack the leg panicked on; otherwise "".
func runLeg(ls legs, i int, a *legArena) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprintf("experiments: leg %d panicked: %v\n\n%s", i, r, debug.Stack())
		}
	}()
	ls[i](a)
	return ""
}
