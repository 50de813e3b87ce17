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

// Get implements Strategy: Clone's live pair, but the second copy goes out
// only after Delay, and both copies are revocable.
func (s *TiedStrategy) Get(key int64, onDone func(GetResult)) {
	op := s.C.newGet(s, key, onDone, &s.WastedIOs)
	op.cancelled = &s.Cancelled
	var first, second int
	s.live, first, second = livePair(s.C, s.RNG, op.replicas, s.live)
	if second < 0 {
		// No live pair to tie: send a single plain copy.
		op.send(first, 0)
		return
	}
	op.alt = second
	op.sendRevocable(first, 0)
	delay := s.Delay
	if delay <= 0 {
		delay = 2 * s.C.Net.Config().HopLatency
	}
	op.arm(delay)
}

// onTimer sends the tied copy unless the get is already won.
func (s *TiedStrategy) onTimer(op *getOp) { op.sendRevocable(op.alt, 1) }

func (s *TiedStrategy) onReply(op *getOp, cp *getCopy, err error) {
	if cp.slot < 0 {
		op.win(1, err) // the single plain copy
		return
	}
	tries := cp.slot + 1
	if errors.Is(err, ErrNodeDown) {
		if !op.refused {
			// That node crashed mid-flight; the sibling (already out, or
			// still to be sent by the delay timer) decides.
			op.refused = true
			return
		}
		// The sibling was refused too: this last refusal decides.
		tries = op.sent
	}
	op.win(tries, err)
	// Cancellation message to the sibling: one network hop, then revoke
	// whatever is still in the scheduler queues.
	op.winner = cp.slot
	op.refs++
	s.C.Net.Send(op.revokeFn)
}

// revokeHop is the Tied winner's cancel message landing: revoke the
// sibling's IO if it still holds a handle, then release both handles.
func (op *getOp) revokeHop() {
	if op.handles[1-op.winner] != nil {
		*op.cancelled++
	}
	op.release(1-op.winner, true)
	op.release(op.winner, false)
	op.deref()
}
