//go:build race

package qon

// raceEnabled reports a -race build, in which sync.Pool drops a share
// of what it is given, so pooled paths allocate at random.
const raceEnabled = true
