package main

import "testing"

// TestMainRuns runs the example end to end: it fails if the program stops
// with log.Fatal or panics.
func TestMainRuns(t *testing.T) { main() }
