package sim

import (
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Checker observes the engine at every packet-lifecycle step and at
// full-state scan points, so an external validator can assert simulation
// invariants (packet conservation, buffer capacities, TTL monotonicity,
// routing-table consistency) while the run executes. The concrete
// implementation lives in internal/validate; the interface is defined here,
// on the consumer side, so the engine stays free of a dependency on the
// validation layer.
//
// Overhead contract: the engine carries the checker in Config.Check and
// guards every call site with a nil comparison, exactly like the telemetry
// probe — a disabled checker (the default) costs one branch per hook point,
// no interface dispatch, no allocation, and no change to simulation
// behaviour. Hooks observe state; they must never mutate it (calling
// read-only accessors that refresh internal caches, like
// routing.Table.Lookup, is allowed because recomputation is deterministic
// and behaviour-neutral).
//
// A checker, like the engine it watches, serves one run on one goroutine.
// Parallel sweeps must give each run its own checker, and Snapshot
// refuses a checked engine, so checked runs are never forked.
type Checker interface {
	// Generated is called when a packet appears at its source station,
	// before the engine stores, delivers or drops it.
	Generated(now trace.Time, p *Packet)
	// Transferred is called on every completed hand-off: node->station
	// (upload), station->node (download), node->node (relay). from and to
	// are entity indices per the hop direction.
	Transferred(now trace.Time, hop telemetry.HopKind, p *Packet, from, to int)
	// Delivered is called when a packet reaches its destination, after the
	// terminal flag is set.
	Delivered(now trace.Time, p *Packet, at int)
	// Dropped is called when a packet leaves the system unsuccessfully,
	// after the terminal flag is set.
	Dropped(now trace.Time, p *Packet, reason metrics.DropReason)
	// Score is called by routers for every computed carrier-suitability
	// score, so the checker can reject NaN scores before they silently
	// corrupt a best-carrier comparison.
	Score(now trace.Time, method string, node, dst int, score float64)
	// Table is called by routing-table owners (the DTN-FLOW router, once
	// per landmark per time unit) so the checker can assert
	// distance-vector consistency.
	Table(now trace.Time, lm int, t *routing.Table)
	// Scan is called with the full simulation state at every measurement
	// time-unit boundary and once at the end of the run, before the
	// end-of-run drain. The checker may read anything reachable from ctx
	// but must not mutate it.
	Scan(now trace.Time, ctx *Context)
	// Finish is called once after the end-of-run drain, for terminal
	// cross-checks against ctx.Metrics and the telemetry recorder.
	Finish(ctx *Context)
}
