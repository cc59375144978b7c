//go:build race

package testenv

// RaceEnabled reports whether the binary was built with the race detector.
// Under -race, sync.Pool deliberately drops a fraction of Puts, so a
// steady-state allocation count taken through pooled workspaces cannot
// hold; zero-allocation tests skip only that assertion when it is set.
const RaceEnabled = true
