// Package xrand provides a small, fast, reproducible pseudo-random number
// generator for simulation work, together with the variate generators the
// router simulator needs (uniform, exponential, Poisson, geometric).
//
// The generator is xoshiro256++ (Blackman & Vigna). It is implemented here
// rather than taken from math/rand so that simulation results are stable
// across Go releases and so that independent streams can be split
// deterministically with Jump, which advances the state by 2^128 steps.
package xrand

import "math"

// Source is a xoshiro256++ pseudo-random generator. The zero value is not a
// valid generator; construct one with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed using the SplitMix64
// scramble recommended by the xoshiro authors. Any seed, including zero,
// yields a well-mixed non-degenerate state.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the generator state as if it had been freshly created with
// New(seed).
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls of
// Uint64. It is used to carve non-overlapping streams out of one seed: each
// replication of a simulation takes one Jump from a shared ancestor.
func (r *Source) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= r.s[0]
				s1 ^= r.s[1]
				s2 ^= r.s[2]
				s3 ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Split returns a new Source whose stream is guaranteed not to overlap with
// the receiver's next 2^128 outputs. The receiver is advanced past the
// returned stream.
func (r *Source) Split() *Source {
	child := &Source{s: r.s}
	r.Jump()
	return child
}

// Float64 returns a uniformly distributed float64 in [0, 1) with 53 random
// bits of mantissa.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniformly distributed float64 in the open interval
// (0, 1); it never returns 0, making it safe as an argument to math.Log.
func (r *Source) Float64Open() float64 {
	for {
		f := r.Float64()
		if f > 0 {
			return f
		}
	}
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Exp returns an exponentially distributed variate with the given rate
// (events per unit time). It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp called with rate <= 0")
	}
	return -math.Log(r.Float64Open()) / rate
}
