//go:build !race

package ops

const raceEnabled = false
