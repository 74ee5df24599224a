package experiment

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestLoadTraceNames checks every loader name returns its generator's
// trace with the catalogue's Full settings for it, under the default seed
// and an overridden one, and that any other name is read as a trace file
// run with the settings of the trace name in its header, MemDiv and
// workload included.
func TestLoadTraceNames(t *testing.T) {
	dnet7, small7 := synth.DefaultDNET(), synth.DefaultSmall()
	dnet7.Seed, small7.Seed = 7, 7
	cases := []struct {
		name      string
		seed      int64
		want      func() *trace.Trace
		ttl, unit trace.Time
	}{
		{"dart", 0, func() *trace.Trace { return synth.DART(synth.DefaultDART()) }, 20 * trace.Day, 3 * trace.Day},
		{"dnet", 0, func() *trace.Trace { return synth.DNET(synth.DefaultDNET()) }, 4 * trace.Day, trace.Day / 2},
		{"campus", 0, func() *trace.Trace { return synth.Campus(synth.DefaultCampus()) }, 3 * trace.Day, 12 * trace.Hour},
		{"small", 0, func() *trace.Trace { return synth.Small(synth.DefaultSmall()) }, 2 * trace.Day, 12 * trace.Hour},
		{"dnet", 7, func() *trace.Trace { return synth.DNET(dnet7) }, 4 * trace.Day, trace.Day / 2},
		{"small", 7, func() *trace.Trace { return synth.Small(small7) }, 2 * trace.Day, 12 * trace.Hour},
	}
	for _, c := range cases {
		sc, err := LoadTrace(c.name, c.seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", c.name, c.seed, err)
		}
		if !reflect.DeepEqual(sc.Trace, c.want()) {
			t.Errorf("%s seed %d: trace differs from its generator's", c.name, c.seed)
		}
		if sc.TTL != c.ttl || sc.Unit != c.unit {
			t.Errorf("%s: TTL %d, unit %d; want %d, %d", c.name, sc.TTL, sc.Unit, c.ttl, c.unit)
		}
		if want := settings[sc.Trace.Name][Full]; sc.Name != want.Name || sc.MemDiv != want.MemDiv || sc.RateDef != want.RateDef {
			t.Errorf("%s: settings %+v, want the catalogue's %+v", c.name, *sc, want)
		}
	}

	small := synth.Small(synth.DefaultSmall())
	path := filepath.Join(t.TempDir(), "small.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadTrace(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr := sc.Trace; !reflect.DeepEqual(tr.Visits, small.Visits) || tr.NumNodes != small.NumNodes || tr.NumLandmarks != small.NumLandmarks {
		t.Error("trace file read back differs from the trace written")
	}
	want := settings["SMALL"][Full]
	want.Trace = sc.Trace
	if *sc != want {
		t.Errorf("trace file: settings %+v; want SMALL's", *sc)
	}
	if _, err := LoadTrace(filepath.Join(t.TempDir(), "missing"), 0); err == nil {
		t.Error("a missing trace file was accepted")
	}
	other := filepath.Join(t.TempDir(), "other.trace")
	if err := os.WriteFile(other, []byte("# OTHER 1 1\n0 0 0 10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrace(other, 0); err == nil {
		t.Error("a trace file whose name has no settings was accepted")
	}
}

// TestTraceFileRunsItsHeaderScenario checks a trace file runs at the
// whole regime of the name in its header: a written DART trace gets
// DART's MemDiv and a written campus trace the deployment's workload,
// exactly the configuration and workload of the named trace.
func TestTraceFileRunsItsHeaderScenario(t *testing.T) {
	for _, name := range []string{"dnet", "campus"} {
		gen, err := LoadTrace(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".trace")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Trace.WriteTo(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		file, err := LoadTrace(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		gcfg, gw := gen.Setup(1, 0, 0)
		fcfg, fw := file.Setup(1, 0, 0)
		if !reflect.DeepEqual(gcfg, fcfg) || !reflect.DeepEqual(gw, fw) {
			t.Errorf("%s: file runs %+v / %+v, the named trace %+v / %+v", name, fcfg, *fw, gcfg, *gw)
		}
	}
}

// TestCampusSetupIsTheDeployment pins the campus deployment the
// catalogue holds (Section V-C): 75 packets per landmark in the daytime,
// all to L1, 50 kB per phone, a 3-day TTL and a 12-hour unit.
func TestCampusSetupIsTheDeployment(t *testing.T) {
	sc, err := ScenarioByName("CAMPUS", Quick)
	if err != nil {
		t.Fatal(err)
	}
	cfg, w := sc.Setup(1, 0, 0)
	want := &sim.Workload{Rate: 75, PerLandmark: true, DaytimeOnly: true, PacketSize: 1024,
		TTL: 3 * trace.Day, FixedDst: synth.CampusL1}
	if !reflect.DeepEqual(w, want) {
		t.Errorf("workload %+v, want %+v", *w, *want)
	}
	if cfg.NodeMemory != 50*1024 || cfg.TTL != 3*trace.Day || cfg.Unit != 12*trace.Hour || cfg.Warmup != sc.Trace.Duration()/4 {
		t.Errorf("config %+v, want 50 kB, a 3-day TTL, a 12-hour unit and a quarter-trace warmup", cfg)
	}
}
