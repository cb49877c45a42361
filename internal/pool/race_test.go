//go:build race

package pool

// raceEnabled reports a build with the race detector. Its runtime
// drops sync.Pool puts at random on purpose, so checks that rest on a
// pool hit are made only without it.
const raceEnabled = true
