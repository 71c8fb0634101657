//go:build race

package trace

// raceEnabled lets allocation-count tests skip their bound under the race
// detector, where sync.Pool drops items at random and a recycled buffer is
// sometimes allocated again.
const raceEnabled = true
