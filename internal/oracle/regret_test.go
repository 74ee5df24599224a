package oracle_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// liveRegret runs one method on a Tiny scenario with a recorder
// attached and returns the in-memory log plus the oracle config that
// reproduces the run's physics.
func liveRegret(t *testing.T, scName, method string) (*telemetry.Log, *experiment.Scenario, oracle.Config) {
	t.Helper()
	var sc *experiment.Scenario
	if scName == "DART" {
		sc = experiment.DARTScenario(experiment.Tiny)
	} else {
		sc = experiment.DNETScenario(experiment.Tiny)
	}
	rec := telemetry.NewRecorder(0)
	cfg, w := sc.Setup(1, 0, 0)
	cfg.Probe = telemetry.NewProbe(rec)
	sim.New(sc.Trace, experiment.NewRouter(method), w, cfg).Run()
	return telemetry.NewLog(rec, experiment.RunMeta(sc.Name, method, sc.Trace, sc.Config(1))), sc, oracle.ConfigFrom(cfg)
}

// TestRegretRoundTrip: the regret report computed from a live recorder
// snapshot must be identical to one computed after a JSONL export and
// re-read — the decision traces and meta physics survive the file
// round-trip bit for bit.
func TestRegretRoundTrip(t *testing.T) {
	log, sc, ocfg := liveRegret(t, "DNET", "DTN-FLOW")
	live := oracle.Regret(log, sc.Trace, ocfg)

	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	reread, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := oracle.Regret(reread, sc.Trace, ocfg)
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("regret diverged across the JSONL round-trip:\nlive:     %+v\nreplayed: %+v", live, replayed)
	}
}

// TestRegretDominates: the per-packet join must respect the relaxed
// bound for every method — no method-only deliveries, no negative
// regret — and the decision replay must see the core router's traces.
func TestRegretDominates(t *testing.T) {
	for _, m := range []string{"DTN-FLOW", "PROPHET"} {
		log, sc, ocfg := liveRegret(t, "DNET", m)
		rep := oracle.Regret(log, sc.Trace, ocfg)
		if rep.Total == 0 || rep.MethodDelivered == 0 || rep.Both == 0 {
			t.Fatalf("%s: empty join: %+v", m, rep)
		}
		if rep.MethodOnly != 0 {
			t.Fatalf("%s: %d packets delivered that the oracle calls undeliverable — bound falsified", m, rep.MethodOnly)
		}
		if rep.MaxRegret < 0 || rep.MeanRegret < 0 {
			t.Fatalf("%s: negative regret (max %d, mean %.1f) — bound falsified", m, rep.MaxRegret, rep.MeanRegret)
		}
		if rep.OracleDeliverable < rep.MethodDelivered {
			t.Fatalf("%s: oracle deliverable %d < method delivered %d", m, rep.OracleDeliverable, rep.MethodDelivered)
		}
		if rep.Decisions == 0 {
			t.Fatalf("%s: no forwarding decisions replayed", m)
		}
		for _, lr := range rep.Landmarks {
			if lr.Agree > lr.Decisions || lr.TopK > lr.Decisions || lr.Fatal > lr.Decisions {
				t.Fatalf("%s: inconsistent landmark aggregate %+v", m, lr)
			}
			if lr.MeanRegret() < 0 {
				t.Fatalf("%s: negative decision regret at L%d", m, lr.Landmark)
			}
		}
	}
}
