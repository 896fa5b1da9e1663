//go:build !race

package num

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
