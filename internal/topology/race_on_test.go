//go:build race

package topology

// raceBuild: the race detector's instrumentation moves some stack objects
// to the heap, so exact allocation pins only hold without it.
const raceBuild = true
