package core

import (
	"time"

	"mittos/internal/blockio"
	"mittos/internal/metrics"
	"mittos/internal/sim"
)

// ThroughputSLO is the §8.1 extension: "other forms of SLO information such
// as throughput can be included as input to MittOS." It wraps any Target
// with per-tenant IOPS contracts enforced by token buckets: a tenant
// submitting beyond its contracted rate gets the same fast EBUSY as a
// deadline violation, so it can shed load or retry elsewhere instead of
// inflating everyone's queues.
//
// Requests within contract pass through untouched (and may still carry
// deadlines for the inner layer). Tenants without a contract are never
// throughput-limited.
type ThroughputSLO struct {
	// k supplies the counts and the EBUSY reply; it is held by name
	// because no deadline verdict is made at this layer.
	k     kernel
	inner Target

	buckets map[int]*tokenBucket
}

// tokenBucket refills continuously at `rate` IOPS up to `burst` tokens.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   sim.Time
}

func (b *tokenBucket) take(now sim.Time) bool {
	elapsed := now.Sub(b.last).Seconds()
	b.last = now
	b.tokens += elapsed * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// NewThroughputSLO wraps inner with throughput admission.
func NewThroughputSLO(eng *sim.Engine, inner Target, opt Options) *ThroughputSLO {
	return &ThroughputSLO{
		k: newKernel(eng, metrics.RNode, opt), inner: inner, // no recorder attaches
		buckets: make(map[int]*tokenBucket),
	}
}

// SetContract grants proc a sustained IOPS rate with the given burst
// allowance. A rate ≤ 0 removes the contract.
func (t *ThroughputSLO) SetContract(proc int, iops float64, burst int) {
	if iops <= 0 {
		delete(t.buckets, proc)
		return
	}
	if burst < 1 {
		burst = 1
	}
	t.buckets[proc] = &tokenBucket{
		rate: iops, burst: float64(burst), tokens: float64(burst),
		last: t.k.eng.Now(),
	}
}

// Counts returns accepted/rejected totals at this layer.
func (t *ThroughputSLO) Counts() (accepted, rejected uint64) { return t.k.Counts() }

// Remaining reports the tenant's current token balance (diagnostics).
func (t *ThroughputSLO) Remaining(proc int) float64 {
	b, ok := t.buckets[proc]
	if !ok {
		return -1
	}
	// Peek without consuming.
	now := t.k.eng.Now()
	tokens := b.tokens + now.Sub(b.last).Seconds()*b.rate
	if tokens > b.burst {
		tokens = b.burst
	}
	return tokens
}

// SubmitSLO implements Target.
func (t *ThroughputSLO) SubmitSLO(req *blockio.Request, onDone func(error)) {
	if b, ok := t.buckets[req.Proc]; ok {
		if !b.take(t.k.eng.Now()) {
			// The predicted wait is the time until the next token.
			deficit := 1 - b.tokens
			t.k.reject(req, onDone, time.Duration(deficit/b.rate*float64(time.Second)), false)
			return
		}
	}
	t.k.accepted++
	t.inner.SubmitSLO(req, onDone)
}
