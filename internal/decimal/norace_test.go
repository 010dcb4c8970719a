//go:build !race

package decimal

// raceEnabled mirrors race_test.go for regular builds.
const raceEnabled = false
