//go:build race

package cluster

// raceEnabled reports a race-detector build, which splits some
// allocations in two.
const raceEnabled = true
