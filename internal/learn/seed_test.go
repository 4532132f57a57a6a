package learn

import "testing"

// TestDeriveSeedStable pins the (base seed, example key) → clone seed
// mapping to golden values. Every ground BC is built on a builder clone
// seeded with these numbers, so any change here silently changes every
// learned theory and every saved model's verdicts. If this test fails
// you have made a breaking change to theory stability: bump the golden
// theories deliberately, don't adjust the constants to match.
func TestDeriveSeedStable(t *testing.T) {
	cases := []struct {
		base int64
		key  string
		want int64
	}{
		{0, "", -3750763034362895579},
		{0, "advisedBy(s00,p00)", 8337687442519254134},
		{0, "advisedBy(s01,p01)", -2923163881101119994},
		{42, "advisedBy(s00,p00)", 8337687442519254108},
		{-1, "advisedBy(s00,p00)", -8337687442519254135},
		{7, "workedUnder(person1,person2)", -5279272779848224104},
	}
	for _, tc := range cases {
		if got := deriveSeed(tc.base, tc.key); got != tc.want {
			t.Errorf("deriveSeed(%d, %q) = %d, want %d", tc.base, tc.key, got, tc.want)
		}
	}
}
