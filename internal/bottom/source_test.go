package bottom

import (
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand holds the builder's source to math/rand:
// seeded alike, it returns rand.NewSource's Uint64 stream word for word
// over 2·607+1 draws, past the register's first wrap, and re-seeding a
// used source restarts the stream. The seeds cover Seed's normalization
// — 0 and the multiples of 2^31-1, which seed as 89482311, negative
// seeds, seeds past 2^31 — and a sweep of consecutive seeds.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 2*rngLen + 1
	seeds := []int64{0, 89482311, -89482311, 1 << 40, -1 << 40, 1<<63 - 1, -1 << 63,
		seedMod, -seedMod, 2 * seedMod, 7 * seedMod, seedMod - 1, seedMod + 1, -seedMod - 1}
	for seed := int64(-3000); seed <= 3000; seed++ {
		seeds = append(seeds, seed)
	}
	var src source
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for d := 0; d < draws; d++ {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, d, g, w)
			}
		}
		// Re-seed the used source: the stream starts over, Int63 included.
		src.Seed(seed)
		want = rand.NewSource(seed).(rand.Source64)
		for d := 0; d < draws; d++ {
			if g, w := src.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d re-seeded: Int63 %d = %d, math/rand %d", seed, d, g, w)
			}
		}
	}
}

// BenchmarkSeedSource times seeding the builder's source against
// rand.NewSource, which allocates and seeds math/rand's own.
func BenchmarkSeedSource(b *testing.B) {
	b.Run("own", func(b *testing.B) {
		b.ReportAllocs()
		var src source
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i + 1))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		var src rand.Source
		for i := 0; i < b.N; i++ {
			src = rand.NewSource(int64(i + 1))
		}
		_ = src
	})
}
