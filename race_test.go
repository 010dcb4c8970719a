//go:build race

package hddcart

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
