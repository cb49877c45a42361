//go:build race

package core

// raceEnabled reports a build with the race detector. Its runtime
// drops sync.Pool puts at random on purpose, so allocation bounds that
// rest on a pool hit are measured only without it.
const raceEnabled = true
