//go:build race

package race

// Enabled reports that the binary was built with the race detector.
const Enabled = true
