//go:build !race

package topology

const raceBuild = false
