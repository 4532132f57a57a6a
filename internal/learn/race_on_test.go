//go:build race

package learn

// raceEnabled: the race detector slows a learning run about twentyfold,
// so the slowest dataset oracles run on a subset of their datasets.
const raceEnabled = true
