//go:build !race

package logic

const raceEnabled = false
