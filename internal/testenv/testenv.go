// Package testenv centralizes the reduced-iteration knob the race-enabled
// CI job uses: `go test -race ./...` multiplies runtimes several-fold, so
// the concurrency-heavy suites (distributed K-FAC, sessions, chaos
// conformance) read Short() and shrink world sizes / iteration counts to
// stay under the job timeout while still exercising every code path.
package testenv

import (
	"flag"
	"os"
)

// ShortEnv is the environment variable that switches tests into
// reduced-iteration mode (any non-empty value). CI's race job sets it.
const ShortEnv = "REPRO_TEST_SHORT"

// Short reports whether tests should run at reduced scale: either the
// standard -short flag or the ShortEnv variable is set. Safe to call from
// test helpers before flag.Parse (the env var needs no flags).
func Short() bool {
	if os.Getenv(ShortEnv) != "" {
		return true
	}
	f := flag.Lookup("test.short")
	if f == nil {
		return false
	}
	b, ok := f.Value.(flag.Getter)
	if !ok {
		return false
	}
	v, _ := b.Get().(bool)
	return v
}

// Scale returns full normally and short under reduced-iteration mode.
func Scale(full, short int) int {
	if Short() {
		return short
	}
	return full
}
