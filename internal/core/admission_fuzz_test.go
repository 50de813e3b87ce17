package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/sim"
	"mittos/internal/ssd"
)

var (
	fuzzProfOnce sync.Once
	fuzzProf     *disk.Profile
)

// fuzzDiskProfile is profiled once per process; the layers only read it.
func fuzzDiskProfile() *disk.Profile {
	fuzzProfOnce.Do(func() {
		fuzzProf = disk.ProfileTwin(disk.DefaultConfig(), 42,
			disk.ProfilerOptions{Buckets: 16, Tries: 4, ProbeSize: 4096})
	})
	return fuzzProf
}

// poolOut is one pool's count of objects not returned.
type poolOut struct {
	name string
	out  int
}

// admissionRig is one Mitt layer over its device, seen through what every
// layer shares: its Target, its counts and its pools.
type admissionRig struct {
	name     string
	eng      *sim.Engine
	target   Target
	capacity int64
	unit     time.Duration // scale of the fuzzed deadlines and gaps
	// counts returns accepted, rejected-at-admission and late-cancelled.
	counts func() (accepted, rejected, cancelled uint64)
	// pools reports each freelist's outstanding objects.
	pools func() []poolOut
	// inject turns on §7.7 error injection; nil where the layer has none.
	inject func(*sim.RNG)
}

func newAdmissionRig(layer byte, opt Options) *admissionRig {
	eng := sim.NewEngine()
	r := &admissionRig{eng: eng, unit: 250 * time.Microsecond}
	if layer == 3 {
		cfg := ssd.DefaultConfig()
		cfg.Channels = 4
		cfg.ChipsPerChannel = 2
		cfg.BlocksPerChip = 16
		cfg.PagesPerBlock = 64
		cfg.OverprovisionBlocks = 4
		dev := ssd.New(eng, cfg)
		m := NewMittSSD(eng, dev, opt)
		r.name, r.target, r.capacity, r.unit = "ssd", m, cfg.LogicalBytes(), 10*time.Microsecond
		r.counts = func() (uint64, uint64, uint64) { return m.accepted, m.rejected, m.cancelled }
		r.pools = func() []poolOut {
			return []poolOut{{"ops", m.ops.Out()}, {"decs", m.decs.Out()}, {"replies", m.replies.pool.Out()}}
		}
		r.inject = func(rng *sim.RNG) { m.SetErrorInjection(0.3, 0.3, rng) }
		return r
	}
	dcfg := disk.DefaultConfig()
	d := disk.New(eng, dcfg, sim.NewRNG(1, "fuzz-admission-disk"))
	r.capacity = dcfg.CapacityBytes
	prof := fuzzDiskProfile()
	mirrorPools := func(mir *sstfMirror, p ...poolOut) []poolOut {
		return append(p, poolOut{"mirror entries", mir.entries.Out()}, poolOut{"mirror wraps", mir.wraps.Out()})
	}
	switch layer {
	case 0, 1:
		opt.Naive = layer == 0
		m := NewMittNoop(eng, iosched.NewNoop(eng, d), prof, opt)
		r.name, r.target = "noop", m
		if opt.Naive {
			r.name = "noop-naive"
		}
		r.counts = func() (uint64, uint64, uint64) { return m.accepted, m.rejected, m.cancelled }
		r.pools = func() []poolOut {
			return mirrorPools(m.mirror, poolOut{"ops", m.ops.Out()}, poolOut{"replies", m.replies.pool.Out()})
		}
		r.inject = func(rng *sim.RNG) { m.SetErrorInjection(0.3, 0.3, rng) }
	case 2:
		m := NewMittCFQ(eng, iosched.NewCFQ(eng, iosched.DefaultCFQConfig(), d), prof, opt)
		r.name, r.target = "cfq", m
		r.counts = func() (uint64, uint64, uint64) { return m.accepted, m.rejected, m.cancelled }
		r.pools = func() []poolOut {
			tracked := 0
			for e := m.ordHead; e != nil; e = e.olNext {
				tracked++
			}
			return mirrorPools(m.mirror, poolOut{"ops", m.ops.Out()}, poolOut{"replies", m.replies.pool.Out()},
				poolOut{"tolerable-table buckets", len(m.buckets)}, poolOut{"tolerable-table entries", tracked})
		}
		r.inject = func(rng *sim.RNG) { m.SetErrorInjection(0.3, 0.3, rng) }
	default:
		m := NewMittDeadline(eng, iosched.NewDeadline(eng, iosched.DefaultDeadlineConfig(), d), prof, opt)
		r.name, r.target = "deadline", m
		r.counts = func() (uint64, uint64, uint64) { return m.k.accepted, m.k.rejected, m.k.cancelled }
		r.pools = func() []poolOut {
			return mirrorPools(m.mirror, poolOut{"ops", m.ops.Out()}, poolOut{"replies", m.k.replies.pool.Out()})
		}
	}
	return r
}

// FuzzAdmission drives one Mitt layer — noop (naive or SSTF), CFQ, SSD or
// deadline — with a fuzzed IO stream and checks what the admission kernel
// promises on every layer: each onDone fires exactly once; without error
// injection an admission-time EBUSY always carries a predicted wait beyond
// deadline+Thop, and an admitted deadline IO never does (§3.3); shadow mode
// never rejects; accepted+rejected equals the IOs submitted, and late
// cancellations never exceed acceptances; every pool drains.
//
// Bytes: [layer, mode], then 6 per IO: offset, size|write, deadline (0 =
// none), proc, class/prio, gap before the next IO.
func FuzzAdmission(f *testing.F) {
	for layer := byte(0); layer < 5; layer++ {
		f.Add([]byte{layer, 0,
			10, 0, 40, 1, 4, 0,
			200, 3, 0, 2, 1, 0,
			90, 1, 8, 3, 0, 2,
			30, 0x81, 0, 1, 4, 0,
			250, 7, 2, 1, 7, 1})
		f.Add([]byte{layer, 1, 5, 0, 1, 1, 4, 0, 250, 2, 1, 2, 0, 0, 128, 1, 60, 3, 0, 40})
		f.Add([]byte{layer, 2, 5, 0, 1, 1, 4, 0, 250, 2, 1, 2, 0, 0, 128, 1, 60, 3, 0, 40})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		opt := DefaultOptions()
		opt.Shadow = data[1]&1 != 0
		r := newAdmissionRig(data[0]%5, opt)
		injected := data[1]&2 != 0 && r.inject != nil
		if injected {
			r.inject(sim.NewRNG(int64(data[1]), "fuzz-admission-inject"))
		}
		io := data[2:]
		if len(io) > 6*64 {
			io = io[:6*64]
		}
		n := len(io) / 6
		reqs := make([]*blockio.Request, n)
		calls := make([]int, n)
		errs := make([]error, n)
		atAdmission := make([]bool, n)
		for i := 0; i < n; i++ {
			b := io[6*i : 6*i+6]
			op := blockio.Read
			if b[1]&0x80 != 0 {
				op = blockio.Write
			}
			size := int(b[1]&7+1) * 4096
			off := (r.capacity - int64(size)) / 256 * int64(b[0]) &^ 4095
			req := &blockio.Request{ID: uint64(i + 1), Op: op, Offset: off, Size: size,
				Deadline: time.Duration(b[2]) * r.unit, Proc: int(b[3] % 4),
				Class: blockio.Class(b[4] % 3), Priority: int(b[4]/3) % 8}
			reqs[i] = req
			i := i
			_, rej0, _ := r.counts()
			r.target.SubmitSLO(req, func(err error) { calls[i]++; errs[i] = err })
			_, rej1, _ := r.counts()
			atAdmission[i] = rej1 > rej0
			if rej1-rej0 > 1 {
				t.Fatalf("%s: one submission counted %d rejections", r.name, rej1-rej0)
			}
			r.eng.RunFor(time.Duration(b[5]) * r.unit)
		}
		r.eng.Run()

		threshold := func(req *blockio.Request) time.Duration { return req.Deadline + opt.Thop }
		for i, req := range reqs {
			if calls[i] != 1 {
				t.Fatalf("%s: io %d: onDone fired %d times", r.name, i, calls[i])
			}
			hasSLO := req.Deadline > blockio.NoDeadline
			if opt.Shadow {
				if atAdmission[i] || IsBusy(errs[i]) {
					t.Fatalf("%s: io %d rejected in shadow mode: %v", r.name, i, errs[i])
				}
				if want := hasSLO && req.PredictedWait > threshold(req); req.ShadowBusy != want {
					t.Fatalf("%s: io %d: ShadowBusy %v, predicted %v vs bound %v",
						r.name, i, req.ShadowBusy, req.PredictedWait, threshold(req))
				}
				continue
			}
			if atAdmission[i] {
				var be *BusyError
				if !errors.As(errs[i], &be) || be.PredictedWait != req.PredictedWait {
					t.Fatalf("%s: io %d rejected at admission, got %v (predicted %v)",
						r.name, i, errs[i], req.PredictedWait)
				}
				if !hasSLO {
					t.Fatalf("%s: io %d without a deadline was rejected", r.name, i)
				}
			}
			if injected || !hasSLO {
				continue
			}
			// The §3.3 contract, both ways: reject exactly the IOs whose
			// predicted wait exceeds deadline+Thop.
			if busy := req.PredictedWait > threshold(req); busy != atAdmission[i] {
				t.Fatalf("%s: io %d: predicted %v, bound %v, rejected at admission %v",
					r.name, i, req.PredictedWait, threshold(req), atAdmission[i])
			}
		}

		acc, rej, canc := r.counts()
		if acc+rej != uint64(n) {
			t.Fatalf("%s: accepted %d + rejected %d != %d submitted", r.name, acc, rej, n)
		}
		if canc > acc {
			t.Fatalf("%s: %d late cancellations > %d accepted", r.name, canc, acc)
		}
		for _, p := range r.pools() {
			if p.out != 0 {
				t.Fatalf("%s: %s has %d objects outstanding after the drain", r.name, p.name, p.out)
			}
		}
	})
}
