//go:build !race

package pipeline

// raceEnabled reports that the race detector is on.
const raceEnabled = false
