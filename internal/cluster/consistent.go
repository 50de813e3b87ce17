package cluster

import (
	"time"

	"mittos/internal/core"
)

// ConsistentMittOSStrategy is the §8.3 discussion implemented: "MittOS
// encourages fast failover, however many NoSQL systems ... attempt to
// minimize replica switching to ensure monotonic reads. MittOS-powered
// NoSQL can be made more conservative about switching replicas that may
// lead to inconsistencies (e.g., do not failover until the other replicas
// are no longer stale)."
//
// The client tracks the highest version it has observed per key (a session
// token, as in MongoDB's causal sessions). On EBUSY it fails over only to
// replicas whose applied version is at least the session's; if every
// alternative is stale, it waits out the busy primary rather than violate
// monotonic reads — trading tail latency for the consistency guarantee,
// which is exactly the tension §8.3 describes.
type ConsistentMittOSStrategy struct {
	C        *Cluster
	Deadline time.Duration

	// session holds the highest version read per key.
	session map[int64]uint64

	Failovers     uint64
	StaleSkips    uint64 // replicas skipped for staleness
	ForcedToWait  uint64 // requests that had to wait on the busy replica
	monotonicFail uint64 // would-be violations avoided (diagnostics)
}

// Name implements Strategy.
func (s *ConsistentMittOSStrategy) Name() string { return "MittOS-consistent" }

// Get implements Strategy.
func (s *ConsistentMittOSStrategy) Get(key int64, onDone func(GetResult)) {
	if s.session == nil {
		s.session = make(map[int64]uint64)
	}
	start := s.C.Eng.Now()
	replicas := s.C.ReplicasFor(key)
	minVersion := s.session[key]

	finish := func(tries int, err error) {
		// Advance the session to what we just (implicitly) read.
		onDone(GetResult{Latency: s.C.Eng.Now().Sub(start), Tries: tries, Err: err})
	}

	var attempt func(i, tries int)
	attempt = func(i, tries int) {
		deadline := s.Deadline
		if i == len(replicas)-1 {
			deadline = 0
		}
		node := s.C.Nodes[replicas[i]]
		s.C.ReplicaCall(replicas[i], key, deadline, func(err error) {
			if err != nil && core.IsBusy(err) {
				s.Failovers++
				// Find the next replica that is fresh enough.
				for j := i + 1; j < len(replicas); j++ {
					cand := s.C.Nodes[replicas[j]]
					if cand.KeyVersion(key) >= minVersion {
						attempt(j, tries+1)
						return
					}
					s.StaleSkips++
				}
				// No fresh alternative: wait out the busy replica rather
				// than serve a stale read (§8.3's conservative choice).
				s.ForcedToWait++
				s.monotonicFail++
				s.C.ReplicaCall(replicas[i], key, 0, func(err2 error) {
					s.recordVersion(key, node)
					finish(tries+1, err2)
				})
				return
			}
			s.recordVersion(key, node)
			finish(tries, err)
		})
	}
	attempt(0, 1)
}

func (s *ConsistentMittOSStrategy) recordVersion(key int64, n *Node) {
	if v := n.KeyVersion(key); v > s.session[key] {
		s.session[key] = v
	}
}
