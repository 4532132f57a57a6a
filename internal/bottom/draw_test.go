package bottom

import (
	"math/rand"
	"testing"
)

// TestDrawHelpersMatchMathRand holds drawInt31n and drawFloat64 to
// (*rand.Rand).Int31n and Float64 over identically seeded sources: the
// same value from every call, and the same next Int63 after a run of
// calls. The largest bounds make Int31n redraw often (1<<30+1 rejects
// nearly half its draws). The Float64 redraw bound is also checked
// against the division it stands for on every one of the top 2^11
// Int63 values.
func TestDrawHelpersMatchMathRand(t *testing.T) {
	bounds := []int32{1, 2, 3, 20, 400, 1 << 20, 1<<30 + 1, 1<<31 - 1}
	for seed := int64(1); seed <= 1000; seed++ {
		for _, n := range bounds {
			want, src := rand.New(rand.NewSource(seed)), new(source)
			src.Seed(seed)
			max := int31nMax(n)
			for call := 0; call < 8; call++ {
				if g, w := drawInt31n(src, n, max), want.Int31n(n); g != w {
					t.Fatalf("seed %d: drawInt31n(%d) call %d = %d, Int31n %d", seed, n, call, g, w)
				}
			}
			if g, w := src.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, n %d: next Int63 after drawInt31n %d, after Int31n %d", seed, n, g, w)
			}
		}
		want, src := rand.New(rand.NewSource(seed)), new(source)
		src.Seed(seed)
		for call := 0; call < 8; call++ {
			if g, w := drawFloat64(src), want.Float64(); g != w {
				t.Fatalf("seed %d: drawFloat64 call %d = %v, Float64 %v", seed, call, g, w)
			}
		}
		if g, w := src.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: next Int63 after drawFloat64 %d, after Float64 %d", seed, g, w)
		}
	}
	for x := int64(1<<63 - 1); x >= 1<<63-1<<11; x-- {
		if redraw := float64(x)/(1<<63) == 1; redraw != (x >= float64Redraw) {
			t.Fatalf("Int63 %d: Float64 redraws %v, x >= float64Redraw %v", x, redraw, !redraw)
		}
	}
}
