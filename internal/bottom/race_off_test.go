//go:build !race

package bottom

const raceEnabled = false
