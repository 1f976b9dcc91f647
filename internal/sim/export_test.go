package sim

// ForceWindowMode installs the window-mode test hook (ShardGroup.forceMode)
// for the tests of package sim_test, which drive whole simulations and so
// cannot live inside the package.
func (g *ShardGroup) ForceWindowMode(f func(window uint64) bool) { g.forceMode = f }
