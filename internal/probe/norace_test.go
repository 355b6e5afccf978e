//go:build !race

package probe_test

// raceStride is 1 without the race detector: every oracle spec runs.
const raceStride = 1
