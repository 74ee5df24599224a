package experiment

import (
	"repro/internal/disrupt"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file threads the offline oracle (internal/oracle) into the
// experiment layer: OracleFor reproduces the exact packet list an
// engine run would generate — the engine's own draw, sim.PacketSchedule —
// and solves it over the scenario's contact graph, so reports can print
// the oracle's upper bound beside the six methods. The figure sweeps'
// ORACLE column solves the same packets as oracle cells (Cell.solveOracle),
// so the store holds it.

// OracleSummary is the oracle's answer for one (scenario, seed, rate)
// cell: the relaxed upper bound (what no method can beat) and the
// committed schedule (a feasible plan under the engine's capacities).
type OracleSummary struct {
	Scenario string  `json:"scenario"`
	Seed     int64   `json:"seed"`
	Rate     float64 `json:"rate"`
	Disrupt  string  `json:"disrupt,omitempty"`

	Packets     int     `json:"packets"`
	Deliverable int     `json:"deliverable"`
	UpperBound  float64 `json:"upper_bound"` // Deliverable / Packets
	// MeanDelay is the relaxed bound's mean delivery delay in seconds
	// over deliverable packets.
	MeanDelay float64 `json:"mean_delay"`

	CommittedDelivered int     `json:"committed_delivered"`
	CommittedRate      float64 `json:"committed_rate"`
}

// OraclePackets reproduces the packet list an engine run on tr would
// generate: sim.PacketSchedule is the engine's own draw.
func (sc *Scenario) OraclePackets(cfg sim.Config, w *sim.Workload, tr *trace.Trace) []oracle.Packet {
	start, end := tr.Span()
	return oracle.FromSim(sim.PacketSchedule(w, cfg, start, end, tr.NumLandmarks))
}

// OracleFor solves the oracle for one (seed, rate) cell of this
// scenario. rate <= 0 uses the scenario default; workers <= 0 uses
// GOMAXPROCS.
func (sc *Scenario) OracleFor(seed int64, rate float64, workers int) (*oracle.Result, OracleSummary) {
	return sc.oracleRun(sc.Trace, seed, rate, workers, "", nil)
}

// OracleDisrupted solves the oracle for a disrupted run: the same
// perturbation pipeline the engines use (perturbed trace, disruption-
// adjusted config and workload) feeds the graph build and the packet
// schedule, so the answer bounds the methods on the trace they actually
// saw.
func (sc *Scenario) OracleDisrupted(seed int64, rate float64, workers int, preset string) (*oracle.Result, OracleSummary, error) {
	tr, sp, err := disrupt.PerturbArg(sc.Trace, preset)
	if err != nil {
		return nil, OracleSummary{}, err
	}
	res, sum := sc.oracleRun(tr, seed, rate, workers, preset, sp)
	return res, sum, nil
}

// OracleScale solves the oracle's relaxed bound over a scaled scenario:
// the scale tier's streaming generator is materialized once, the
// engine-identical packet schedule is drawn, and the bound is solved
// with the given worker count (<= 0 means GOMAXPROCS). The committed
// pass is skipped — at 32× populations the relaxed ceiling is the
// yardstick of interest and the greedy commit would dominate the
// wall-clock without changing it.
func (sp ScaleSpec) OracleScale(workers int) (OracleSummary, error) {
	open, err := sp.Open()
	if err != nil {
		return OracleSummary{}, err
	}
	cfg, err := sp.Config()
	if err != nil {
		return OracleSummary{}, err
	}
	w, err := sp.Workload()
	if err != nil {
		return OracleSummary{}, err
	}
	tr, err := trace.Materialize(open())
	if err != nil {
		return OracleSummary{}, err
	}
	start, end := tr.Span()
	pkts := oracle.FromSim(sim.PacketSchedule(w, cfg, start, end, tr.NumLandmarks))
	ocfg := oracle.ConfigFrom(cfg)
	ocfg.Workers = workers
	ocfg.SkipCommitted = true
	return oracleSummary(sp.Scenario, cfg.Seed, w.Rate, "", oracle.SolveTrace(tr, ocfg, pkts)), nil
}

func (sc *Scenario) oracleRun(tr *trace.Trace, seed int64, rate float64, workers int, label string, sp *disrupt.Spec) (*oracle.Result, OracleSummary) {
	cfg, w := sc.Setup(seed, rate, 0)
	sp.Apply(&cfg, w)
	pkts := sc.OraclePackets(cfg, w, tr)
	ocfg := oracle.ConfigFrom(cfg)
	ocfg.Workers = workers
	res := oracle.SolveTrace(tr, ocfg, pkts)
	return res, oracleSummary(sc.Name, seed, w.Rate, label, res)
}

// oracleSummary is the OracleSummary of res, solved for the packets drawn at
// (seed, rate) on the named scenario under the disruption label.
func oracleSummary(scenario string, seed int64, rate float64, label string, res *oracle.Result) OracleSummary {
	sum := OracleSummary{
		Scenario:           scenario,
		Seed:               seed,
		Rate:               rate,
		Disrupt:            label,
		Packets:            len(res.Packets),
		Deliverable:        res.Deliverable,
		MeanDelay:          res.MeanDelay,
		CommittedDelivered: res.CommittedDelivered,
	}
	if sum.Packets > 0 {
		sum.UpperBound = float64(sum.Deliverable) / float64(sum.Packets)
		sum.CommittedRate = float64(sum.CommittedDelivered) / float64(sum.Packets)
	}
	return sum
}
