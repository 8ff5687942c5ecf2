package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). Every stochastic element of the
// platform model (part-to-part voltage variation, switching-time jitter,
// meter noise) draws from an RNG owned by the component, so experiments
// are reproducible and components do not perturb each other's streams.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to spread the seed across the state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork derives an independent generator whose stream is a pure function of
// this generator's seed material and the label. Forking does not disturb
// the parent's sequence.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.s[0] ^ (label * 0x9e3779b97f4a7c15) ^ r.s[2])
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed value (Box–Muller) with the given
// mean and standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Jitter returns a duration drawn uniformly from [d-spread, d+spread],
// clamped at zero.
func (r *RNG) Jitter(d, spread Time) Time {
	j := Time(r.Uniform(float64(d)-float64(spread), float64(d)+float64(spread)))
	if j < 0 {
		return 0
	}
	return j
}
