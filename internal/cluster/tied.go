package cluster

import (
	"errors"
	"time"

	"mittos/internal/sim"
)

// TiedStrategy approximates Dean & Barroso's "tied requests": the request
// is sent to two replicas with a small delay between them, each tagged with
// the other's identity, and when one begins execution it cancels its
// sibling.
//
// The paper could NOT evaluate this faithfully (§7.8.2): with MongoDB over
// a stock kernel there is no "begin execution" signal — "device queue is in
// fact invisible to the OS" and "it is not easy to build a begin-execution
// signal path from the OS/device layer to the application". The simulation
// has the same constraint for device-resident IOs, so this implementation
// does exactly what an application-level port could do: the *winner's
// completion* cancels the sibling, which helps only if the sibling is still
// cancellable in the scheduler queues. It exists as the comparison point
// the paper wanted, with its documented weakness intact.
type TiedStrategy struct {
	C *Cluster
	// Delay before the second (tied) copy is sent; Dean & Barroso suggest
	// ~2× the network hop.
	Delay time.Duration
	RNG   *sim.RNG

	Cancelled uint64
	// WastedIOs counts losing copies whose IO escaped the cancellation —
	// it was already device-resident, ran to completion, and was discarded.
	WastedIOs uint64

	live []int // selection scratch, reused across gets
}

// Name implements Strategy.
func (s *TiedStrategy) Name() string { return "Tied" }

// Get implements Strategy.
func (s *TiedStrategy) Get(key int64, onDone func(GetResult)) {
	start := s.C.Eng.Now()
	replicas := s.C.ReplicasFor(key)
	// Tie only live replicas; with every node up the filter is the
	// identity and the random draws are unchanged.
	s.live = s.live[:0]
	for _, r := range replicas {
		if !s.C.Nodes[r].Down() {
			s.live = append(s.live, r)
		}
	}
	if len(s.live) == 0 {
		// Whole replica set down: fail fast via the primary's refusal.
		s.C.ReplicaCall(replicas[0], key, 0, func(err error) {
			onDone(GetResult{Latency: s.C.Eng.Now().Sub(start), Tries: 1, Err: err})
		})
		return
	}
	if len(s.live) == 1 {
		// One survivor: a tied pair is impossible (the old code's
		// RNG.Intn(0) panic); send a single plain copy.
		s.C.ReplicaCall(s.live[0], key, 0, func(err error) {
			onDone(GetResult{Latency: s.C.Eng.Now().Sub(start), Tries: 1, Err: err})
		})
		return
	}
	i := s.RNG.Intn(len(s.live))
	j := s.RNG.Intn(len(s.live) - 1)
	if j >= i {
		j++
	}
	won := false
	pending := 0
	handles := [2]*ServeHandle{}
	finish := func(idx, tries int) func(error) {
		return func(err error) {
			if won {
				if wasted(err) {
					s.WastedIOs++ // the cancel lost the race with the device
				}
				return
			}
			pending--
			if errors.Is(err, ErrNodeDown) && (pending > 0 || tries == 1) {
				// That node crashed mid-flight; the sibling (already out,
				// or still to be sent by the delay timer) decides.
				return
			}
			won = true
			// Cancellation message to the sibling: one network hop, then
			// revoke whatever is still in the scheduler queues. Both handles
			// are released afterwards; the pooled handle must not be touched
			// once Done, so they are dropped in the same hop.
			other := 1 - idx
			s.C.Net.Send(func() {
				if h := handles[other]; h != nil {
					h.Cancel()
					s.Cancelled++
				}
				for k, h := range handles {
					if h != nil {
						h.Done()
						handles[k] = nil
					}
				}
			})
			onDone(GetResult{Latency: s.C.Eng.Now().Sub(start), Tries: tries, Err: err})
		}
	}
	send := func(idx, node, tries int) {
		s.C.Net.Send(func() {
			if won {
				return // lost the race with the winner's cancel hop
			}
			pending++
			handles[idx] = s.C.Nodes[node].ServeGetCancelable(key, 0, func(err error) {
				if errors.Is(err, ErrRevoked) {
					// The winner's cancel dropped this IO before it ran;
					// there is no reply to race.
					return
				}
				s.C.Net.Send(func() { finish(idx, tries)(err) })
			})
		})
	}
	// Resolve the pair to node indices now: s.live is shared scratch and
	// the delay timer below outlives this Get.
	first, second := s.live[i], s.live[j]
	// First copy immediately; the tied copy after Delay unless already won.
	send(0, first, 1)
	delay := s.Delay
	if delay <= 0 {
		delay = 2 * s.C.Net.Config().HopLatency
	}
	s.C.Eng.After(delay, func() {
		if won {
			return
		}
		send(1, second, 2)
	})
}
