//go:build race

package probe_test

// raceStride thins TestProbeMatchesReference's specs under the race
// detector (see oracleSpecs).
const raceStride = 6
