//go:build race

package main

// raceBuild: TestFuzzDiscovery builds every test binary of the module, which
// the race detector makes slower and checks nothing more in.
const raceBuild = true
