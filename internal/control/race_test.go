//go:build race

package control

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// entries at random, so allocation counts are not exact under it.
const raceEnabled = true
