package oracle

// Version names the current numeric behaviour of the oracle: graph
// construction, the relaxed search and the committed schedule, pinned by
// the oracle golden corpus (experiment's TestOracleGolden). It is part of
// every oracle cell's fingerprint (experiment.Cell.Fingerprint), the way
// sim.EngineVersion is part of every run cell's.
//
// Bump the suffix in the same commit that regenerates the oracle corpus,
// so a stored answer from the previous behaviour misses instead of
// hitting.
const Version = "dtnflow-oracle/1"
