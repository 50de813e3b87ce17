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

	Failovers    uint64
	StaleSkips   uint64 // replicas skipped for staleness
	ForcedToWait uint64 // requests that had to wait on the busy replica
}

// Name implements Strategy.
func (s *ConsistentMittOSStrategy) Name() string { return "MittOS-consistent" }

// Get implements Strategy.
func (s *ConsistentMittOSStrategy) Get(key int64, onDone func(GetResult)) {
	if s.session == nil {
		s.session = make(map[int64]uint64)
	}
	op := s.C.newGet(s, key, onDone, nil)
	op.minVersion = s.session[key]
	s.attempt(op, 0)
}

// attempt sends a try to replica i; the last replica's try disables the
// deadline. op.idx == len(op.replicas) marks the forced wait.
func (s *ConsistentMittOSStrategy) attempt(op *getOp, i int) {
	op.idx = i
	deadline := s.Deadline
	if i == len(op.replicas)-1 {
		deadline = 0
	}
	op.send(op.replicas[i], deadline)
}

func (s *ConsistentMittOSStrategy) onReply(op *getOp, cp *getCopy, err error) {
	if op.idx < len(op.replicas) && core.IsBusy(err) {
		s.Failovers++
		// Find the next replica that is fresh enough.
		for j := op.idx + 1; j < len(op.replicas); j++ {
			if s.C.Nodes[op.replicas[j]].KeyVersion(op.key) >= op.minVersion {
				s.attempt(op, j)
				return
			}
			s.StaleSkips++
		}
		// No fresh alternative: wait out the busy replica rather than
		// serve a stale read (§8.3's conservative choice).
		s.ForcedToWait++
		op.idx = len(op.replicas)
		op.send(cp.node, 0)
		return
	}
	// Advance the session to what we just (implicitly) read.
	if v := s.C.Nodes[cp.node].KeyVersion(op.key); v > s.session[op.key] {
		s.session[op.key] = v
	}
	op.win(op.sent, err)
}

func (s *ConsistentMittOSStrategy) onTimer(*getOp) {}
