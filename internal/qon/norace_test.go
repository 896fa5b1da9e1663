//go:build !race

package qon

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
