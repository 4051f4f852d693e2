//go:build race

package ops

// raceEnabled: the race detector skews allocation counts (sync.Pool drops
// items at random under it), so allocation tests skip.
const raceEnabled = true
