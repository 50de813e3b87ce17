package sim

import (
	"testing"
	"time"
)

// fuzzDelays spans every wheel level plus the overflow list: zero and
// sub-slot delays, the 256^k slot-width edges on both sides, mid-level
// spans, the full 2^48 ns horizon, and near-MaxTime saturation. Index with
// arg%len to give the fuzzer cheap reach into every cascade path.
var fuzzDelays = [...]Duration{
	0,
	1,
	255, 256, 257, // level 0 / 1 edge
	65535, 65536, 65537, // level 1 / 2 edge
	Duration(time.Millisecond),
	1 << 24, // level 3
	1 << 32, // level 4
	Duration(300 * time.Second),
	1 << 48,           // overflow horizon
	Duration(1 << 62), // near MaxTime; saturates under accumulation
}

// FuzzEngineWheel differentially fuzzes the timing-wheel engine against the
// retained min-heap (EventHeap, heaporacle.go) with a byte-program of
// schedule/After/cancel/Step/RunUntil/Reset/halted-RunUntil ops. Both
// queues implement the same (time, seq) contract, so every observable must
// match exactly: fire order, Now() trajectory after every op, Pending, and
// Fired. The delay table reaches across cascade boundaries and the
// overflow horizon, where the two data structures' internals diverge the
// most; the halt op stops RunUntil from inside a callback with due events
// still queued, the one state where the wheel must refuse to advance the
// clock (an occupied slot behind its cursor is a structural violation).
func FuzzEngineWheel(f *testing.F) {
	f.Add([]byte{0, 5, 1, 3, 3, 0, 0, 0, 2, 0, 3, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 0, 2, 1, 3, 0})
	f.Add([]byte{1, 7, 1, 7, 3, 0, 1, 7, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2, 0})
	// Cascade-edge and overflow seeds.
	f.Add([]byte{0, 3, 0, 4, 0, 9, 0, 12, 4, 6, 3, 0, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{1, 13, 0, 13, 0, 8, 4, 12, 2, 0, 3, 0, 3, 0})
	// Reset mid-flight, then rebuild.
	f.Add([]byte{0, 9, 1, 10, 3, 0, 5, 0, 0, 2, 1, 3, 3, 0, 3, 0})
	f.Add([]byte{1, 12, 1, 12, 4, 13, 5, 0, 0, 5, 3, 0})
	// Halt mid-RunUntil with due events still queued, then resume: the
	// second seed halts with a cross-level (slot-256) event pending, the
	// REVIEW.md repro shape that once stranded a slot behind the cursor.
	f.Add([]byte{0, 5, 0, 8, 6, 1, 4, 8, 3, 0, 3, 0})
	f.Add([]byte{0, 1, 0, 3, 6, 0, 4, 7, 2, 0, 3, 0, 3, 0})
	f.Add([]byte{1, 7, 6, 2, 5, 0, 0, 4, 6, 9, 4, 12, 3, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := NewEngine()
		oracle := NewEventHeap()
		var (
			engFired    []int
			oracleFired []int
			handles     []*Event     // live wheel handles, index-aligned with oracleHandles
			oracleHs    []*HeapEvent // live oracle handles
			nextID      int
		)
		check := func(op string) {
			t.Helper()
			if eng.Now() != oracle.Now() {
				t.Fatalf("%s: Now wheel=%v oracle=%v", op, eng.Now(), oracle.Now())
			}
			if eng.Pending() != oracle.Pending() {
				t.Fatalf("%s: Pending wheel=%d oracle=%d", op, eng.Pending(), oracle.Pending())
			}
			if eng.Fired() != oracle.Fired() {
				t.Fatalf("%s: Fired wheel=%d oracle=%d", op, eng.Fired(), oracle.Fired())
			}
			if len(engFired) != len(oracleFired) {
				t.Fatalf("%s: fire-log lengths %d vs %d", op, len(engFired), len(oracleFired))
			}
			for i := range engFired {
				if engFired[i] != oracleFired[i] {
					t.Fatalf("%s: fire order diverges at %d: wheel #%d, oracle #%d",
						op, i, engFired[i], oracleFired[i])
				}
			}
		}

		for i := 0; i+1 < len(data) && i < 4096; i += 2 {
			op, arg := data[i]%7, data[i+1]
			switch op {
			case 0: // Schedule (handle-returning, cancellable)
				d := fuzzDelays[int(arg)%len(fuzzDelays)]
				id := nextID
				nextID++
				handles = append(handles,
					eng.Schedule(d, func() { engFired = append(engFired, id) }))
				oracleHs = append(oracleHs,
					oracle.Schedule(d, func() { oracleFired = append(oracleFired, id) }))
				check("schedule")
			case 1: // After (owned, freelist-recycled)
				d := fuzzDelays[int(arg)%len(fuzzDelays)]
				id := nextID
				nextID++
				eng.After(d, func() { engFired = append(engFired, id) })
				oracle.After(d, func() { oracleFired = append(oracleFired, id) })
				check("after")
			case 2: // Cancel the same live handle on both sides
				if len(handles) == 0 {
					continue
				}
				j := int(arg) % len(handles)
				handles[j].Cancel()
				oracleHs[j].Cancel()
				if handles[j].Cancelled() != oracleHs[j].Cancelled() {
					t.Fatalf("cancel: Cancelled() wheel=%v oracle=%v",
						handles[j].Cancelled(), oracleHs[j].Cancelled())
				}
				check("cancel")
			case 3: // Step
				if eng.Step() != oracle.Step() {
					t.Fatal("step: one queue ran, the other idled")
				}
				check("step")
			case 4: // RunUntil a delay-table offset past the current clock
				until := eng.Now().Add(fuzzDelays[int(arg)%len(fuzzDelays)])
				eng.RunUntil(until)
				oracle.RunUntil(until)
				check("rununtil")
			case 5: // Reset both; old handles must be inert on both sides
				eng.Reset()
				oracle.Reset()
				for j := range handles {
					handles[j].Cancel() // must be a no-op post-Reset
					oracleHs[j].Cancel()
				}
				handles, oracleHs = handles[:0], oracleHs[:0]
				check("reset")
			case 6: // Halt from inside a callback mid-RunUntil, leaving any
				// other due events queued behind the stopped clock.
				d := fuzzDelays[int(arg)%len(fuzzDelays)]
				id := nextID
				nextID++
				eng.After(d, func() {
					engFired = append(engFired, id)
					eng.Halt()
				})
				oracle.After(d, func() {
					oracleFired = append(oracleFired, id)
					oracle.Halt()
				})
				until := eng.Now().Add(d).Add(fuzzDelays[(int(arg)+3)%len(fuzzDelays)])
				eng.RunUntil(until)
				oracle.RunUntil(until)
				check("halt")
			}
		}

		// Drain both completely and compare the final trajectories.
		for {
			a, b := eng.Step(), oracle.Step()
			if a != b {
				t.Fatal("drain: one queue ran, the other idled")
			}
			check("drain")
			if !a {
				break
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("Pending=%d after drain", eng.Pending())
		}
	})
}
