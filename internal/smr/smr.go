// Package smr models a host-aware Shingled Magnetic Recording drive — the
// §8.2 extension target: "SMR disk drives must perform 'band cleaning'
// operations, which can easily induce tail latencies ... MittOS can be
// applied naturally in this context."
//
// The model layers SMR semantics over the conventional disk model of
// internal/disk: the surface is divided into shingled bands written
// strictly sequentially; random writes land in a small persistent-cache
// region and are later cleaned into their home bands by a
// read-modify-write of the whole band — the multi-hundred-millisecond
// background operation that stalls reads. Band cleaning is host-visible
// (host-aware SMR reports zone state), which is exactly what MittSMR's
// predictor exploits.
package smr

import (
	"fmt"
	"time"

	"mittos/internal/blockio"
	"mittos/internal/disk"
	"mittos/internal/sim"
)

// Config shapes the SMR drive.
type Config struct {
	// Disk is the underlying mechanics (seeks, transfer, queueing).
	Disk disk.Config
	// BandBytes is the size of one shingled band (typically 256MB).
	BandBytes int64
	// CacheBytes is the persistent (media) cache absorbing random writes.
	CacheBytes int64
	// CleanHighWater starts cleaning when the cache passes this fraction.
	CleanHighWater float64
	// CleanLowWater stops cleaning when the cache drains below this.
	CleanLowWater float64
	// CleanChunkBytes splits each band pass into chunks so foreground
	// reads can interleave between them (real drives clean incrementally);
	// the total clean still occupies the spindle for the full band twice.
	CleanChunkBytes int64
	// CleanIdleDelay postpones cleaning briefly after the trigger.
	CleanIdleDelay time.Duration
}

// DefaultConfig returns a drive-managed-style 1TB SMR drive.
func DefaultConfig() Config {
	return Config{
		Disk:            disk.DefaultConfig(),
		BandBytes:       64 << 20, // ~1.3s clean per band at 100MB/s media rate
		CacheBytes:      8 << 30,
		CleanHighWater:  0.75,
		CleanLowWater:   0.50,
		CleanChunkBytes: 8 << 20,
		CleanIdleDelay:  50 * time.Millisecond,
	}
}

// CleanEvent reports one band-cleaning episode to the host (host-aware SMR
// exposes zone activity).
type CleanEvent struct {
	Band    int64
	Start   sim.Time
	BusyFor time.Duration
}

// Drive is the SMR device. It implements blockio.Device.
type Drive struct {
	eng  *sim.Engine
	cfg  Config
	disk *disk.Disk

	cacheUsed int64
	// dirtyBands tracks which bands have cached writes awaiting cleaning,
	// in arrival order (cleaning is FIFO over bands).
	dirtyBands []int64
	dirtySet   map[int64]int64 // band → cached bytes
	cleaning   bool

	cleans         uint64
	cleanHook      func(CleanEvent)
	cleanStartHook func(band int64, estimated time.Duration)

	// Band-clean state machine. Cleans run one at a time (d.cleaning) and
	// issue chunks strictly sequentially, so one reusable request and a
	// pre-bound completion cover every chunk IO without allocating.
	cleanBand   int64
	cleanCached int64
	cleanStart  sim.Time
	cleanIssued int64
	cleanTotal  int64
	cleanChunk  int64
	cleanReq    blockio.Request
	chunkFn     func(*blockio.Request) // pre-bound chunk completion
	cleanFn     func()                 // pre-bound d.cleanNext

	reqs  blockio.Pool
	slows sim.Freelist[slowOp]
}

// slowOp is the pooled completion context for the cache-full slow path: it
// acks the original write when the drive-owned spindle pass finishes.
type slowOp struct {
	d   *Drive
	req *blockio.Request // the original write being acked
	fn  func(*blockio.Request)
}

func (op *slowOp) Bind() { op.fn = op.done }

func (op *slowOp) done(r *blockio.Request) {
	d, req := op.d, op.req
	op.req = nil
	d.slows.Release(op)
	r.Release()
	req.CompleteTime = d.eng.Now()
	if req.OnComplete != nil {
		req.OnComplete(req)
	}
}

// New builds the drive.
func New(eng *sim.Engine, cfg Config, rng *sim.RNG) *Drive {
	if cfg.BandBytes <= 0 || cfg.CacheBytes <= 0 {
		panic("smr: invalid config")
	}
	if cfg.CleanLowWater >= cfg.CleanHighWater {
		panic("smr: watermarks inverted")
	}
	d := &Drive{
		eng:      eng,
		cfg:      cfg,
		disk:     disk.New(eng, cfg.Disk, rng),
		dirtySet: make(map[int64]int64),
	}
	d.chunkFn = func(*blockio.Request) { d.issueChunk() }
	d.cleanFn = d.cleanNext
	return d
}

// SetCleanHook registers the host-visible band-cleaning notification,
// analogous to the SSD GC hook.
func (d *Drive) SetCleanHook(fn func(CleanEvent)) { d.cleanHook = fn }

// SetCleanStartHook registers a notification fired when a band clean
// BEGINS, with the predicted duration — the host-aware zone-activity
// signal MittSMR folds into its wait predictions.
func (d *Drive) SetCleanStartHook(fn func(band int64, estimated time.Duration)) {
	d.cleanStartHook = fn
}

// EstimateCleanDuration predicts one band clean: two sequential passes over
// the band plus positioning.
func (d *Drive) EstimateCleanDuration() time.Duration {
	pass := time.Duration(d.cfg.BandBytes/1024) * d.cfg.Disk.TransferPerKB
	return 2*pass + 2*(d.cfg.Disk.SeekBase+d.cfg.Disk.SeekMax/2)
}

// Cleans returns the number of completed band cleans.
func (d *Drive) Cleans() uint64 { return d.cleans }

// CacheFill returns the persistent-cache occupancy fraction.
func (d *Drive) CacheFill() float64 {
	return float64(d.cacheUsed) / float64(d.cfg.CacheBytes)
}

// Cleaning reports whether a band clean is in progress.
func (d *Drive) Cleaning() bool { return d.cleaning }

// CanAccept / SetSlotFreeHook / InFlight delegate to the underlying disk so
// Drive satisfies iosched.Downstream and can sit under noop or CFQ.
func (d *Drive) CanAccept() bool { return d.disk.CanAccept() }

// SetSlotFreeHook implements iosched.Downstream.
func (d *Drive) SetSlotFreeHook(fn func()) { d.disk.SetSlotFreeHook(fn) }

// InFlight implements blockio.Device.
func (d *Drive) InFlight() int { return d.disk.InFlight() }

// Config returns the drive configuration.
func (d *Drive) Config() Config { return d.cfg }

func (d *Drive) band(off int64) int64       { return off / d.cfg.BandBytes }
func (d *Drive) bandStart(band int64) int64 { return band * d.cfg.BandBytes }

// Submit implements blockio.Device: reads pass through; writes land in the
// persistent cache (fast, sequential-ish) and accumulate cleaning debt.
func (d *Drive) Submit(req *blockio.Request) {
	if req.Op == blockio.Write {
		if d.cacheUsed+int64(req.Size) > d.cfg.CacheBytes {
			// Persistent cache full: the drive falls back to a direct
			// (slow, spindle-bound) shingled write — the throttling every
			// overdriven SMR drive exhibits. Model it as a spindle pass
			// over the written range.
			slow := d.reqs.Get()
			slow.Op, slow.Offset, slow.Size = blockio.Read, req.Offset, req.Size
			slow.Proc, slow.Class, slow.Priority = req.Proc, req.Class, req.Priority
			slow.SubmitTime = req.SubmitTime
			op := sim.Acquire(&d.slows)
			op.d, op.req = d, req
			slow.OnComplete = op.fn
			d.disk.Submit(slow)
			d.maybeClean()
			return
		}
		// Random writes go to the media cache: cheap now, cleaned later.
		d.cacheUsed += int64(req.Size)
		b := d.band(req.Offset)
		if _, ok := d.dirtySet[b]; !ok {
			d.dirtySet[b] = 0
			d.dirtyBands = append(d.dirtyBands, b)
		}
		d.dirtySet[b] += int64(req.Size)
		d.disk.Submit(req) // NVRAM/write-cache path in the disk model
		d.maybeClean()
		return
	}
	d.disk.Submit(req)
}

// maybeClean starts band cleaning above the high watermark and keeps
// cleaning until the low watermark — the bursty, long-lived background
// noise SMR is notorious for.
func (d *Drive) maybeClean() {
	if d.cleaning || d.CacheFill() < d.cfg.CleanHighWater {
		return
	}
	d.cleaning = true
	d.eng.After(d.cfg.CleanIdleDelay, d.cleanFn)
}

func (d *Drive) cleanNext() {
	if len(d.dirtyBands) == 0 || d.CacheFill() <= d.cfg.CleanLowWater {
		d.cleaning = false
		return
	}
	band := d.dirtyBands[0]
	d.dirtyBands = d.dirtyBands[1:]
	d.cleanBand = band
	d.cleanCached = d.dirtySet[band]
	delete(d.dirtySet, band)
	d.cleanStart = d.eng.Now()
	if d.cleanStartHook != nil {
		d.cleanStartHook(band, d.EstimateCleanDuration())
	}

	// Read-modify-write of the whole band, issued as chunked sequential
	// IOs (two full passes) so foreground reads can slot in between
	// chunks. The passes are modeled as spindle-occupying reads: the disk
	// model's write path would ack from NVRAM, which is wrong for a band
	// rewrite, so the rewrite pass reuses the sequential-read cost model.
	chunk := d.cfg.CleanChunkBytes
	if chunk <= 0 || chunk > d.cfg.BandBytes {
		chunk = d.cfg.BandBytes
	}
	d.cleanChunk = chunk
	d.cleanTotal = 2 * ((d.cfg.BandBytes + chunk - 1) / chunk)
	d.cleanIssued = 0
	d.issueChunk()
}

// issueChunk advances the clean state machine by one chunk. Chunks run
// strictly one at a time, so the drive reuses a single request struct; the
// next chunk is issued from the previous one's completion.
func (d *Drive) issueChunk() {
	if d.cleanIssued >= d.cleanTotal {
		d.cacheUsed -= d.cleanCached
		if d.cacheUsed < 0 {
			d.cacheUsed = 0
		}
		d.cleans++
		if d.cleanHook != nil {
			d.cleanHook(CleanEvent{Band: d.cleanBand, Start: d.cleanStart,
				BusyFor: d.eng.Now().Sub(d.cleanStart)})
		}
		d.cleanNext()
		return
	}
	off := d.bandStart(d.cleanBand) + (d.cleanIssued%(d.cleanTotal/2))*d.cleanChunk
	size := d.cleanChunk
	if off+size > d.bandStart(d.cleanBand)+d.cfg.BandBytes {
		size = d.bandStart(d.cleanBand) + d.cfg.BandBytes - off
	}
	d.cleanIssued++
	d.cleanReq = blockio.Request{Op: blockio.Read, Offset: off, Size: int(size),
		Proc: -1, Class: blockio.ClassIdle, Priority: 7, OnComplete: d.chunkFn}
	d.disk.Submit(&d.cleanReq)
}

// String describes drive state.
func (d *Drive) String() string {
	return fmt.Sprintf("smr.Drive{cache=%.0f%% dirtyBands=%d cleaning=%v cleans=%d}",
		100*d.CacheFill(), len(d.dirtyBands), d.cleaning, d.cleans)
}
