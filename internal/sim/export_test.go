package sim

// TestConfig exposes the package's two-center test day to the external
// test package, whose tests also import internal/exp (which imports sim).
var TestConfig = testConfig
