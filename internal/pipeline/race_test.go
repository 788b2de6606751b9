//go:build race

package pipeline

// raceEnabled reports that the race detector is on. It slows every memory
// access several-fold and unevenly, so timing bounds are not judged under it.
const raceEnabled = true
