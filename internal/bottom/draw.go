package bottom

// Every draw of a build is read straight from its source (source.go)
// through drawInt31n and drawFloat64, which reproduce math/rand's
// Rand.Int31n and Rand.Float64 draw for draw: the same values from the
// same Int63 calls, so every sampled clause is the one a rand.Rand over
// math/rand's own source, seeded alike, would give
// (TestDrawHelpersMatchMathRand, TestSourceMatchesMathRand). The source
// is concrete, so its Int63 inlines into the helpers. Reading it
// directly lets olkenSample precompute Int31n's rejection bounds once
// per draw set and advance the source by exactly the draws of attempts
// that can no longer change its sample (source.drainOlken).

// float64Redraw is the smallest Int63 draw that Float64 redraws: from it
// up, float64(x) rounds to 1<<63 and x/(1<<63) to 1, which Float64 never
// returns.
const float64Redraw = 1<<63 - 1<<9

// int31nMax returns Int31n's rejection bound for n > 0: a draw above it
// is redrawn, so that v % n is uniform. For a power of two it is
// 1<<31 - 1, which no draw exceeds.
func int31nMax(n int32) int32 {
	return int32((1<<31 - 1) - (1<<31)%uint32(n))
}

// drawInt31n returns Rand.Int31n(n) of a rand.Rand over src, draw for
// draw; max must be int31nMax(n). A power of two is masked, as Int31n
// masks it, which spares a single-value draw set its division.
func drawInt31n(src *source, n, max int32) int32 {
	if n&(n-1) == 0 {
		return int32(src.Int63()>>32) & (n - 1)
	}
	v := int32(src.Int63() >> 32)
	for v > max {
		v = int32(src.Int63() >> 32)
	}
	return v % n
}

// drawFloat64 returns Rand.Float64() of a rand.Rand over src, draw for
// draw.
func drawFloat64(src *source) float64 {
	x := src.Int63()
	for x >= float64Redraw {
		x = src.Int63()
	}
	return float64(x) / (1 << 63)
}
