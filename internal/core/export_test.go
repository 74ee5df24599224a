package core

// Test hooks for the external core_test package.

// ForcePlainLoop disables r's cycle fast-forward, so its scheduler runs
// every round of every contact.
func (r *Router) ForcePlainLoop() { r.cycle.off = true }

// CycleSkips reports how many cycle fast-forwards r has taken.
func (r *Router) CycleSkips() int64 { return r.cycle.skips }
