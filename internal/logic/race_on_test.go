//go:build race

package logic

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so the pooled render scratch is reallocated and allocation
// counts say nothing about the code.
const raceEnabled = true
