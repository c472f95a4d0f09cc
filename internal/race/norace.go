//go:build !race

// Package race tells tests whether the race detector is compiled in: it
// moves some stack allocations to the heap, so an exact allocation budget
// holds only without it.
package race

// Enabled reports that the binary was built with the race detector.
const Enabled = false
