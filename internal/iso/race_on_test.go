//go:build race

package iso

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
