package sim

// EngineVersion names what a run fingerprint computes: the numeric
// behaviour of the simulation engine — one event loop, whether it runs
// over a materialized trace (New) or a stream (NewSharded), pinned by the
// golden corpus — and the run a cell's name resolves to, the scenario
// catalogue's settings (experiment/catalogue.go) included. It is part of
// every run fingerprint (experiment.Cell.Fingerprint), so results in the
// fleet's store and golden comparisons can never silently span an engine
// whose event order, tie-breaks or accounting rules changed, or a name
// whose regime did.
//
// Bump the suffix in the same commit that regenerates testdata/golden
// (scripts/golden.sh) or changes what a cell name runs: a stale
// content-addressed store entry from the previous behaviour must miss,
// not hit.
const EngineVersion = "dtnflow-engine/7"
