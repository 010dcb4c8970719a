//go:build !race

package hddcart

// raceEnabled mirrors race_test.go for regular builds.
const raceEnabled = false
