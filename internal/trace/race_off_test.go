//go:build !race

package trace

// See race_on_test.go.
const raceEnabled = false
