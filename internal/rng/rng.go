// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout phideep.
//
// Experiments in the paper must be regenerated bit-for-bit across runs and
// platforms, so the library does not depend on math/rand's global state or
// on its version-dependent algorithms. The generator here is xoshiro256**
// seeded through SplitMix64, the combination recommended by the xoshiro
// authors. It is not cryptographically secure and must not be used for
// anything but workload generation and weight initialization.
package rng

import (
	"encoding/binary"
	"fmt"
	"math"
)

// RNG is a deterministic xoshiro256** generator. The zero value is invalid;
// use New. RNG is not safe for concurrent use; give each goroutine its own
// stream via Split.
type RNG struct {
	s [4]uint64
	// spare caches the second output of the Box-Muller transform.
	spare    float64
	hasSpare bool
}

// New returns a generator seeded from the given seed. Any seed, including
// zero, yields a well-mixed state.
func New(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 to spread the seed across the 256-bit state.
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

// Split derives an independent generator from r, advancing r. Streams
// produced by successive Split calls are statistically independent for the
// purposes of workload generation.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// AddUniform adds Uniform(lo, hi) to every element of dst in order: the
// same draws, bit for bit, as a loop of dst[i] += r.Uniform(lo, hi). Its
// loop body restates Uint64 and Uniform with the generator state held in
// locals for the length of the slice, which a loop of calls leaves in
// memory.
func (r *RNG) AddUniform(dst []float64, lo, hi float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		result := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		f := float64(result>>11) * (1.0 / (1 << 53))
		dst[i] += lo + (hi-lo)*f
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Norm returns a standard normal variate (Box-Muller, with caching of the
// spare value so consecutive calls cost one transform per pair).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		mag := math.Sqrt(-2 * math.Log(u))
		r.spare = mag * math.Sin(2*math.Pi*v)
		r.hasSpare = true
		return mag * math.Cos(2*math.Pi*v)
	}
}

// Bernoulli returns 1 with probability p and 0 otherwise.
func (r *RNG) Bernoulli(p float64) float64 {
	if r.Float64() < p {
		return 1
	}
	return 0
}

// marshaledSize is the encoded size of the full generator state: four
// 64-bit state words, the Box-Muller spare, and the spare-valid flag.
const marshaledSize = 4*8 + 8 + 1

// MarshalBinary implements encoding.BinaryMarshaler. The encoding captures
// the complete generator state (including the cached Box-Muller spare), so
// a restored generator continues the exact same stream — the property
// checkpoint/resume training relies on.
func (r *RNG) MarshalBinary() ([]byte, error) {
	buf := make([]byte, marshaledSize)
	for i, s := range r.s {
		binary.LittleEndian.PutUint64(buf[8*i:], s)
	}
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(r.spare))
	if r.hasSpare {
		buf[40] = 1
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, restoring state
// written by MarshalBinary.
func (r *RNG) UnmarshalBinary(data []byte) error {
	if len(data) != marshaledSize {
		return fmt.Errorf("rng: state is %d bytes, want %d", len(data), marshaledSize)
	}
	if data[40] > 1 {
		return fmt.Errorf("rng: corrupt spare flag %d", data[40])
	}
	for i := range r.s {
		r.s[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	r.spare = math.Float64frombits(binary.LittleEndian.Uint64(data[32:]))
	r.hasSpare = data[40] == 1
	return nil
}

// MarshaledSize returns the fixed byte length of MarshalBinary's encoding,
// for readers that frame the state inside a larger checkpoint.
func MarshaledSize() int { return marshaledSize }

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
