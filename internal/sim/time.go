// Package sim provides a deterministic, process-oriented discrete-event
// simulation engine in the style of the CSIM library used by the original
// SPASM simulator.  Simulated processes are ordinary Go functions running
// in goroutines; exactly one process runs at a time, under the control of
// the engine, so process code may freely manipulate shared simulator
// state without locking.  Event ordering is fully deterministic: events
// with equal timestamps fire in scheduling order.
package sim

import (
	"fmt"
	"math"
)

// Time is a point (or span) of simulated time.
//
// The unit is chosen so that every quantity appearing in the HPCA'95
// paper is an exact integer:
//
//	1 microsecond            = 660 units
//	1 CPU cycle at 33 MHz    =  20 units (30.303 ns)
//	1 byte on a 20 MB/s link =  33 units (50 ns)
//	LogP L = 1.6 us          = 1056 units
//
// Using integers keeps the simulation exactly reproducible and immune to
// floating-point accumulation error.
type Time int64

// Conversion constants for Time.
const (
	// UnitsPerMicro is the number of Time units in one microsecond.
	UnitsPerMicro Time = 660
	// Cycle is one CPU cycle of the baseline 33 MHz SPARC processor
	// fixed by the paper's architectural characterization.
	Cycle Time = 20
	// SerialByte is the transmission time of one byte on the paper's
	// 20 MB/s serial (1-bit wide) unidirectional link.
	SerialByte Time = 33
)

// Micros converts a duration in microseconds to Time, rounding to the
// nearest unit.
func Micros(us float64) Time {
	return Time(math.Round(us * float64(UnitsPerMicro)))
}

// Cycles converts a cycle count of the baseline 33 MHz processor to Time.
func Cycles(n int64) Time { return Time(n) * Cycle }

// Micros reports t in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(UnitsPerMicro) }

// String formats t as microseconds, e.g. "1.600us".
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", t.Micros())
}
