//go:build race

package ftv_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
