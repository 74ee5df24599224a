package main

import (
	"reflect"
	"testing"

	"repro/internal/experiment"
)

// TestDefaultRunIsTheFiguresRun checks dtnflow-sim's default DART run
// is the figures' run: with the flags at their defaults and -method
// PROPHET, its configuration, workload and trace deep-equal those of the
// Fig. 11 2000 kB cell and the Fig. 13 rate-500 cell, and the three
// spellings share one fingerprint.
func TestDefaultRunIsTheFiguresRun(t *testing.T) {
	defer func(m string) { *method = m }(*method)
	*method = "PROPHET"
	sc, c, err := load()
	if err != nil {
		t.Fatal(err)
	}
	cfg, w := c.Setup(sc)
	fsc, err := experiment.ScenarioByName("DART", experiment.Full)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	base := experiment.Cell{Kind: experiment.CellRun, Scenario: "DART", Scale: "full", Method: "PROPHET", Seed: 1}
	fig11, fig13 := base, base
	fig11.Memory, fig13.Rate = 2000, 500
	for name, fc := range map[string]experiment.Cell{"fig11 2000 kB": fig11, "fig13 rate 500": fig13} {
		fcfg, fw := fc.Setup(fsc)
		if !reflect.DeepEqual(cfg, fcfg) || !reflect.DeepEqual(w, fw) {
			t.Errorf("%s: dtnflow-sim runs %+v / %+v, the cell %+v / %+v", name, cfg, *w, fcfg, *fw)
		}
		if ffp, err := fc.Fingerprint(); err != nil || ffp != fp {
			t.Errorf("%s: fingerprint %s (%v), dtnflow-sim's %s", name, ffp, err, fp)
		}
	}
	if !reflect.DeepEqual(sc.Trace, fsc.Trace) {
		t.Error("dtnflow-sim's DART trace differs from the figures'")
	}
	if cfg.NodeMemory != fsc.Memory(2000) || w.Rate != 500 {
		t.Errorf("node memory %d B at %v packets/day, want Memory(2000) = %d B at 500", cfg.NodeMemory, w.Rate, fsc.Memory(2000))
	}
}
