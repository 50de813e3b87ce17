package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/iosched"
	"mittos/internal/sim"
	"mittos/internal/smr"
)

// MittSMR applies the MittOS principle to shingled-magnetic-recording
// drives — the §8.2 extension: "SMR disk drives must perform 'band
// cleaning' operations, which can easily induce tail latencies ... MittOS
// can be applied naturally in this context, also empowered by the
// development of SMR-aware OS/file systems."
//
// The layer composes the noop-scheduler queue predictor (the drive's
// mechanics are a conventional disk) with zone-activity awareness: a
// host-aware SMR drive announces when a band clean begins and the predictor
// folds the clean's predicted duration into every wait estimate, so
// deadline reads arriving mid-clean are rejected instantly instead of
// stalling behind a multi-hundred-millisecond read-modify-write.
type MittSMR struct {
	noop  *MittNoop
	drive *smr.Drive

	cleanBusyUntil sim.Time

	rejectedByClean uint64
}

// NewMittSMR builds the layer over a noop scheduler stacked on the drive.
func NewMittSMR(eng *sim.Engine, sched *iosched.Noop, drive *smr.Drive,
	prof *disk.Profile, opt Options) *MittSMR {
	m := &MittSMR{
		noop:  NewMittNoop(eng, sched, prof, opt),
		drive: drive,
	}
	drive.SetCleanStartHook(func(band int64, est time.Duration) {
		until := eng.Now().Add(est)
		if until > m.cleanBusyUntil {
			m.cleanBusyUntil = until
		}
	})
	return m
}

// CleanRemaining returns the predicted residual of the in-progress band
// clean (0 when idle).
func (m *MittSMR) CleanRemaining() time.Duration {
	now := m.noop.eng.Now()
	if m.cleanBusyUntil <= now {
		return 0
	}
	return m.cleanBusyUntil.Sub(now)
}

// cleanPenalty is the extra wait a read arriving now pays for the
// in-progress clean. Cleaning is chunked and the device ages starving
// reads ahead of later chunks, so the penalty is bounded by roughly one
// chunk's service time plus the device's age limit — not the whole clean.
func (m *MittSMR) cleanPenalty() time.Duration {
	rem := m.CleanRemaining()
	if rem == 0 {
		return 0
	}
	cfg := m.drive.Config()
	chunk := cfg.CleanChunkBytes
	if chunk <= 0 || chunk > cfg.BandBytes {
		chunk = cfg.BandBytes
	}
	bound := time.Duration(chunk/1024)*cfg.Disk.TransferPerKB + cfg.Disk.AgeLimit
	if rem < bound {
		return rem
	}
	return bound
}

// Counts returns (accepted, rejected) totals, including clean-rejections.
func (m *MittSMR) Counts() (accepted, rejected uint64) { return m.noop.Counts() }

// RejectedByClean returns rejections attributable to band cleaning alone.
func (m *MittSMR) RejectedByClean() uint64 { return m.rejectedByClean }

// SubmitSLO implements Target.
func (m *MittSMR) SubmitSLO(req *blockio.Request, onDone func(error)) {
	if req.Deadline > blockio.NoDeadline && req.Op == blockio.Read {
		if c := m.cleanPenalty(); c > m.noop.threshold(req.Deadline) {
			// The drive is mid-clean and will not surface this read in
			// time: fast rejection without queueing.
			m.rejectedByClean++
			m.noop.reject(req, onDone, c, false)
			return
		}
	}
	m.noop.SubmitSLO(req, onDone)
}
