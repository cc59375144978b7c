//go:build !race

package testenv

// RaceEnabled reports whether the binary was built with the race detector;
// see race.go.
const RaceEnabled = false
