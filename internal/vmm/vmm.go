// Package vmm models a virtual machine monitor scheduling CPU-bound VMs in
// timeslices, and MittVMM — the §8.2 extension: "The VMM by default sets a
// VM's CPU timeslice to 30ms, thus user requests to a frozen VM will be
// parked in the VMM for tens of ms. With MittOS, the user can pass a
// deadline through the network stack, and when the message is received by
// the VMM, it can reject the message with EBUSY if the target VM must still
// sleep more than the deadline time."
package vmm

import (
	"fmt"
	"time"

	"mittos/internal/core"
	"mittos/internal/sim"
)

// Config shapes the host's VM scheduler.
type Config struct {
	// Timeslice is each runnable VM's CPU quantum (Xen-style 30ms).
	Timeslice time.Duration
	// DeliverCost is the VMM's message-delivery overhead once the target
	// VM is running.
	DeliverCost time.Duration
}

// DefaultConfig matches §8.2's 30ms timeslice.
func DefaultConfig() Config {
	return Config{Timeslice: 30 * time.Millisecond, DeliverCost: 20 * time.Microsecond}
}

// VM is one guest. CPU-bound VMs are always runnable; an idle VM yields its
// slice immediately (boosted wakeup), which is how lightly-loaded guests
// dodge the parking problem.
type VM struct {
	ID       int
	CPUBound bool

	parked []parkedMsg
}

type parkedMsg struct {
	fn func()
}

// Host is the VMM: a single physical core multiplexed round-robin across
// runnable VMs (the §8.2 contention scenario: "CPU-intensive VMs can
// contend with each other").
type Host struct {
	eng *sim.Engine
	cfg Config
	vms []*VM

	current  int
	sliceEnd sim.Time

	delivered uint64
	rejected  uint64
}

// NewHost builds the VMM with the given guests and starts the scheduler.
func NewHost(eng *sim.Engine, cfg Config, vms []*VM) *Host {
	if len(vms) == 0 {
		panic("vmm: need at least one VM")
	}
	if cfg.Timeslice <= 0 {
		panic("vmm: timeslice must be positive")
	}
	h := &Host{eng: eng, cfg: cfg, vms: vms}
	h.schedule(0)
	return h
}

// schedule gives VM i the CPU: a full timeslice when CPU-bound, an instant
// yield otherwise (idle guests don't burn their quantum).
func (h *Host) schedule(i int) {
	h.current = i
	vm := h.vms[i]
	dur := h.cfg.Timeslice
	if !vm.CPUBound {
		dur = h.cfg.DeliverCost
		if dur <= 0 {
			dur = time.Microsecond
		}
	}
	h.sliceEnd = h.eng.Now().Add(dur)
	// Deliver everything parked for this VM.
	for _, m := range vm.parked {
		m := m
		h.eng.After(h.cfg.DeliverCost, m.fn)
	}
	vm.parked = nil
	h.eng.After(dur, func() {
		h.schedule((i + 1) % len(h.vms))
	})
}

// TimeUntilRun predicts when VM id next holds the CPU: 0 if running now,
// otherwise the remaining slices ahead of it. This is exactly the
// information the VMM has and the guest OS does not — MittVMM's white-box
// signal.
func (h *Host) TimeUntilRun(id int) time.Duration {
	idx := h.indexOf(id)
	if idx < 0 {
		panic(fmt.Sprintf("vmm: unknown VM %d", id))
	}
	if idx == h.current {
		return 0
	}
	now := h.eng.Now()
	remaining := h.sliceEnd.Sub(now)
	if remaining < 0 {
		remaining = 0
	}
	ahead := idx - h.current
	if ahead < 0 {
		ahead += len(h.vms)
	}
	// Idle VMs between here and the target yield instantly.
	wait := remaining
	for k := 1; k < ahead; k++ {
		j := (h.current + k) % len(h.vms)
		if h.vms[j].CPUBound {
			wait += h.cfg.Timeslice
		}
	}
	return wait
}

func (h *Host) indexOf(id int) int {
	for i, vm := range h.vms {
		if vm.ID == id {
			return i
		}
	}
	return -1
}

// Stats returns delivered/rejected counters.
func (h *Host) Stats() (delivered, rejected uint64) { return h.delivered, h.rejected }

// Deliver hands a message to VM id with an optional deadline SLO. Without
// MittVMM semantics (deadline 0) the message parks until the VM runs — the
// tens-of-ms stall of §8.2. With a deadline, the VMM rejects instantly when
// the target VM must still sleep longer than the deadline.
func (h *Host) Deliver(id int, deadline time.Duration, onDone func(error)) {
	idx := h.indexOf(id)
	if idx < 0 {
		panic(fmt.Sprintf("vmm: unknown VM %d", id))
	}
	wait := h.TimeUntilRun(id)
	if deadline > 0 && wait > deadline {
		h.rejected++
		onDone(&core.BusyError{PredictedWait: wait})
		return
	}
	h.delivered++
	deliver := func() { onDone(nil) }
	if wait == 0 {
		h.eng.After(h.cfg.DeliverCost, deliver)
		return
	}
	h.vms[idx].parked = append(h.vms[idx].parked, parkedMsg{fn: deliver})
}
