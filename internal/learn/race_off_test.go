//go:build !race

package learn

const raceEnabled = false
