//go:build race

package main

// raceEnabled reports whether the race detector is active. The traced
// path is skipped under -race: the detector's runtime frames carry no Go
// stack, so CPU samples in them cannot be charged to a layer.
const raceEnabled = true
