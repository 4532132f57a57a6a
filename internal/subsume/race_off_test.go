//go:build !race

package subsume

const raceEnabled = false
