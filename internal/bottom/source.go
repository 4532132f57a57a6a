package bottom

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (the
// rngSource behind rand.NewSource, by D. P. Mitchell and J. A. Reeds),
// reproduced word for word: seeded with the same value, it returns the
// same Uint64 and Int63 stream (TestSourceMatchesMathRand). The builder
// and each pooled build state hold one by value, so seeding a build
// allocates nothing, and its draws inline, so a draw is no interface
// call.
//
// Two things differ from rngSource, neither visible in the stream. The
// 607 cooked words that seeding XORs in are recovered from math/rand
// at init, not copied (recoverCooked). And Seed reads its 1,821
// seedrand words from a power table instead of stepping seedrand 1,841
// times in a serial division chain.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// seedMod is seedrand's modulus, the Mersenne prime 2^31 - 1;
	// seedrand is x ↦ 48271·x mod seedMod.
	seedMod = 1<<31 - 1
	// seedSkip is the number of seedrand steps Seed discards before the
	// first word.
	seedSkip = 20
)

var (
	// seedPow[i][j] is 48271^(seedSkip+1+3i+j) mod seedMod: the factor
	// that takes a seed to the j-th of the three seedrand values word i
	// is built from.
	seedPow [rngLen][3]uint32
	// cooked is math/rand's rngCooked, the words Seed XORs into the
	// seedrand words.
	cooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for range seedSkip {
		p = mulMod(p, 48271)
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			p = mulMod(p, 48271)
			seedPow[i][j] = uint32(p)
		}
	}
	cooked = recoverCooked()
}

// recoverCooked returns math/rand's rngCooked table. A fresh source's
// first rngLen draws write every word of its register exactly once,
// so the draws are the register after them; undoing the draws in
// reverse order gives the register Seed(1) set, and XORing out seed 1's
// seedrand words leaves the cooked words. It runs before cooked is set,
// so Seed(1) gives those words alone.
func recoverCooked() [rngLen]int64 {
	mr := rand.NewSource(1).(rand.Source64)
	var s source
	s.tap, s.feed = 0, rngLen-rngTap
	for range rngLen {
		s.tap, s.feed = prev(s.tap), prev(s.feed)
		s.vec[s.feed] = int64(mr.Uint64())
	}
	for range rngLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%rngLen, (s.feed+1)%rngLen
	}
	var words source
	words.Seed(1)
	var c [rngLen]int64
	for i := range c {
		c[i] = s.vec[i] ^ words.vec[i]
	}
	return c
}

// mulMod returns a·b mod seedMod for a, b < seedMod by Mersenne
// reduction: no division.
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&seedMod + x>>31
	x = x&seedMod + x>>31
	if x >= seedMod {
		x -= seedMod
	}
	return x
}

// Seed sets the source to the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	// Word i is built from seedrand values 21+3i to 23+3i of the seed,
	// as rngSource.Seed builds it.
	x := uint64(seed)
	for i := range s.vec {
		p := &seedPow[i]
		u := mulMod(x, uint64(p[0]))<<40 ^ mulMod(x, uint64(p[1]))<<20 ^ mulMod(x, uint64(p[2]))
		s.vec[i] = int64(u) ^ cooked[i]
	}
}

// prev steps a register index down, wrapping.
func prev(i int) int {
	if i == 0 {
		return rngLen - 1
	}
	return i - 1
}

// step makes one draw from the register at indices tap and feed: it
// returns the draw's 64 bits and the indices after it.
func step(vec *[rngLen]int64, tap, feed int) (int64, int, int) {
	tap, feed = prev(tap), prev(feed)
	x := vec[feed] + vec[tap]
	vec[feed] = x
	return x, tap, feed
}

// Uint64 returns the next 64-bit draw.
func (s *source) Uint64() uint64 {
	var x int64
	x, s.tap, s.feed = step(&s.vec, s.tap, s.feed)
	return uint64(x)
}

// Int63 returns the next draw's low 63 bits, as rand.Source does.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// drainOlken advances the source by the draws of n Olken attempts over
// a frontier of len(bound) values, exactly as olkenSample's attempts
// would make them: Int31n(len(bound)) picks a value k, and when
// bound[k] > 0 — Int31n's rejection bound for k's frequency; 0 when k
// has no match — Int31n(m) redraws above bound[k] and Float64 redraws
// at or above float64Redraw. The register indices stay in locals.
func (s *source) drainOlken(n int, bound []int32) {
	nv := uint32(len(bound))
	nvMax := int31nMax(int32(nv))
	pow2 := nv&(nv-1) == 0
	tap, feed, vec := s.tap, s.feed, &s.vec
	var x int64
	for ; n > 0; n-- {
		x, tap, feed = step(vec, tap, feed)
		v := int32((x & rngMask) >> 32)
		var k uint32
		if pow2 {
			k = uint32(v) & (nv - 1)
		} else {
			for v > nvMax {
				x, tap, feed = step(vec, tap, feed)
				v = int32((x & rngMask) >> 32)
			}
			k = uint32(v) % nv
		}
		if max := bound[k]; max > 0 {
			for {
				x, tap, feed = step(vec, tap, feed)
				if int32((x&rngMask)>>32) <= max {
					break
				}
			}
			for {
				x, tap, feed = step(vec, tap, feed)
				if x&rngMask < float64Redraw {
					break
				}
			}
		}
	}
	s.tap, s.feed = tap, feed
}
