//go:build race

package engine

// raceEnabled lets the exhaustive sweeps sample their grid under the race
// detector, whose instrumentation slows the real model about 25×.
const raceEnabled = true
