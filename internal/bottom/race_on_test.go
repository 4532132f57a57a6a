//go:build race

package bottom

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so some pooled scratch is reallocated and allocation counts
// run higher than the code's own.
const raceEnabled = true
