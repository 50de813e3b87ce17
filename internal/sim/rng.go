package sim

import (
	"math"
	"math/rand"
)

// RNG is a named, seeded random stream. Each simulation component draws from
// its own stream so that adding randomness to one component never perturbs
// another — the property that keeps experiment diffs reviewable.
//
// RNG wraps math/rand.Rand (stdlib-only requirement) with the distribution
// helpers the device and noise models need.
type RNG struct {
	r *rand.Rand
}

// NewRNG derives a deterministic stream from a root seed and a component
// name. The same (seed, name) pair always produces the same stream.
func NewRNG(seed int64, name string) *RNG {
	h := uint64(seed)
	// FNV-1a over the name, mixed into the seed. Stable across runs and
	// platforms; cryptographic quality is irrelevant here.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	nh := uint64(offset64)
	for i := 0; i < len(name); i++ {
		nh ^= uint64(name[i])
		nh *= prime64
	}
	h ^= nh
	// SplitMix64 finalizer to decorrelate nearby seeds.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return &RNG{r: rand.New(rand.NewSource(int64(h)))}
}

// Fork derives a child stream, e.g. one per node in a fleet.
func (g *RNG) Fork(name string) *RNG {
	return NewRNG(g.r.Int63(), name)
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0,n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Duration returns a uniform duration in [0,d).
func (g *RNG) Duration(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(g.r.Int63n(int64(d)))
}

// DurationRange returns a uniform duration in [lo,hi).
func (g *RNG) DurationRange(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + g.Duration(hi-lo)
}

// Exp returns an exponentially distributed duration with the given mean,
// used for Poisson arrival processes (noise episodes, open-loop clients).
func (g *RNG) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	d := Duration(float64(mean) * g.r.ExpFloat64())
	const cap = 1 << 62
	if d < 0 || d > cap {
		return cap
	}
	return d
}

// Normal returns a normally distributed value.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// NormalDuration returns a normally distributed duration clamped at ≥ 0.
func (g *RNG) NormalDuration(mean, stddev Duration) Duration {
	d := Duration(g.Normal(float64(mean), float64(stddev)))
	if d < 0 {
		return 0
	}
	return d
}

// Pareto returns a bounded Pareto sample in [xm, cap] with shape alpha.
// Heavy-tailed noise episode lengths use this: most bursts are short, a few
// are long — the sub-second burstiness of §6.
func (g *RNG) Pareto(xm float64, alpha float64, cap float64) float64 {
	if alpha <= 0 {
		panic("sim: Pareto requires alpha > 0")
	}
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	v := xm / math.Pow(u, 1/alpha)
	if cap > 0 && v > cap {
		v = cap
	}
	return v
}

// ParetoDuration is Pareto over durations.
func (g *RNG) ParetoDuration(xm Duration, alpha float64, cap Duration) Duration {
	return Duration(g.Pareto(float64(xm), alpha, float64(cap)))
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Zipf draws from a Zipf-like distribution over [0,n) with exponent theta in
// (0,1), using the YCSB/Gray et al. construction. A theta of 0.99 matches
// YCSB's default "zipfian" request distribution.
type Zipf struct {
	n      int64
	theta  float64
	alpha  float64
	zetan  float64
	eta    float64
	zeta2  float64
	source *RNG
}

// NewZipf builds a Zipf sampler over [0,n).
func NewZipf(g *RNG, n int64, theta float64) *Zipf {
	if n <= 0 {
		panic("sim: NewZipf requires n > 0")
	}
	if theta <= 0 || theta >= 1 {
		panic("sim: NewZipf requires theta in (0,1)")
	}
	z := &Zipf{n: n, theta: theta, source: g}
	z.zeta2 = zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next sample in [0,n). Rank 0 is the hottest item.
func (z *Zipf) Next() int64 {
	u := z.source.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	if v < 0 {
		v = 0
	}
	return v
}
