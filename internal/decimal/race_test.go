//go:build race

package decimal

// raceEnabled lets the ten-million-token differential shrink under the
// race detector, which slows it tenfold and has no shared state to check
// in it.
const raceEnabled = true
