package main

import "testing"

// TestSelfTest runs every correctness check against a valid output and
// against corrupted ones, as each benchmark run does before it measures.
func TestSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}
