package sim

// EngineVersion names the current numeric behaviour of the simulation
// engine — one event loop, whether it runs over a materialized trace (New)
// or a stream (NewSharded), pinned by the golden corpus. It is part
// of every run fingerprint (experiment.Cell.Fingerprint), so results in
// the fleet's store and golden comparisons can never silently span an
// engine whose event order, tie-breaks or accounting rules changed.
//
// Bump the suffix in the same commit that regenerates testdata/golden
// (scripts/golden.sh): the corpus and this constant both pin the same
// contract, and a stale content-addressed store entry from the previous
// behaviour must miss, not hit.
const EngineVersion = "dtnflow-engine/6"
