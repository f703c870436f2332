package faults

// linkStream is one directed link's loss stream: it yields exactly the
// values rand.New(rand.NewSource(seed)).Float64() would, without building
// math/rand's 607-word register up front.
//
// math/rand's source is the additive lagged-Fibonacci generator
// out[k] = out[k-607] + out[k-273] (mod 2⁶⁴). Seeding fills the register
// with vec[i] = (x₃ᵢ₊₂₁<<40 ^ x₃ᵢ₊₂₂<<20 ^ x₃ᵢ₊₂₃) ^ rngCooked[i], where
// xₖ = 48271ᵏ·x₀ mod (2³¹−1) — 1841 modular steps and about 5 KB per
// source, while a link of one round draws a handful of values. Draw k
// reads two register words: the feed word vec[(333−k) mod 607], which is
// out[k-607] once k ≥ 607 and a seeded word before, and the tap word
// vec[(606−k) mod 607], which is out[k-273] once k ≥ 273. A seeded word
// is three multiplications by a precomputed power of 48271, so each of the
// first 273 outputs is a pure function of (x₀, k) and is recomputed when
// a later draw reads it. A stream therefore allocates nothing until its
// 274th draw, and only then allocates the ring for later outputs.
type linkStream struct {
	x0   uint64         // the seed as rngSource.Seed reduces it, in [1, 2³¹−2]
	draw int            // draws made so far
	ring *[rngLen]int64 // out[k] for k ≥ rngTap, at index k mod rngLen
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

// seedPow[j] is 48271^(j+21) mod (2³¹−1), the multiplier taking the
// reduced seed x₀ to x_{j+21}. rngSource.Seed discards x₁…x₂₀ and keeps
// x₂₁…x₁₈₄₁, three per register word.
var seedPow = func() (pow [3 * rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * 48271 % int32max
	}
	for j := range pow {
		pow[j] = x
		x = x * 48271 % int32max
	}
	return pow
}()

// newLinkStream reduces seed exactly as rngSource.Seed does.
func newLinkStream(seed int64) linkStream {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return linkStream{x0: uint64(seed)}
}

// seeded returns register word i as rngSource.Seed leaves it.
func (s *linkStream) seeded(i int) int64 {
	p := seedPow[3*i : 3*i+3 : 3*i+3]
	u := (p[0]*s.x0%int32max)<<40 ^ (p[1]*s.x0%int32max)<<20 ^ p[2]*s.x0%int32max
	return int64(u) ^ rngCooked[i]
}

// early returns out[k] for k < rngTap: both words it summed were seeded.
func (s *linkStream) early(k int) int64 {
	return s.seeded(rngLen-rngTap-1-k) + s.seeded(rngLen-1-k)
}

// output returns out[j] of an earlier draw j.
func (s *linkStream) output(j int) int64 {
	if j < rngTap {
		return s.early(j)
	}
	return s.ring[j%rngLen]
}

// next advances the generator one step, like rngSource.Uint64.
func (s *linkStream) next() int64 {
	k := s.draw
	s.draw++
	if k < rngTap {
		return s.early(k)
	}
	var feed int64
	switch {
	case k >= rngLen:
		feed = s.output(k - rngLen)
	case k < rngLen-rngTap:
		feed = s.seeded(rngLen - rngTap - 1 - k)
	default:
		feed = s.seeded(2*rngLen - rngTap - 1 - k)
	}
	x := feed + s.output(k-rngTap)
	if s.ring == nil {
		s.ring = new([rngLen]int64)
	}
	s.ring[k%rngLen] = x
	return x
}

// Float64 returns the stream's next value in [0, 1), like
// rand.(*Rand).Float64 over a seeded rand.Source.
func (s *linkStream) Float64() float64 {
	for {
		if f := float64(s.next()&(1<<63-1)) / (1 << 63); f < 1 {
			return f
		}
	}
}
