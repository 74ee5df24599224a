package experiment

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// TestLoadTraceNames checks every loader name returns its generator's
// trace with the paper's settings for it, under the default seed and an
// overridden one, and that any other name is read as a trace file run
// with the settings of the trace name in its header.
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
		tr, ttl, unit, err := LoadTrace(c.name, c.seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", c.name, c.seed, err)
		}
		if !reflect.DeepEqual(tr, c.want()) {
			t.Errorf("%s seed %d: trace differs from its generator's", c.name, c.seed)
		}
		if ttl != c.ttl || unit != c.unit {
			t.Errorf("%s: TTL %d, unit %d; want %d, %d", c.name, ttl, unit, c.ttl, c.unit)
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
	tr, ttl, unit, err := LoadTrace(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Visits, small.Visits) || tr.NumNodes != small.NumNodes || tr.NumLandmarks != small.NumLandmarks {
		t.Error("trace file read back differs from the trace written")
	}
	if ttl != 2*trace.Day || unit != 12*trace.Hour {
		t.Errorf("trace file: TTL %d, unit %d; want SMALL's", ttl, unit)
	}
	if _, _, _, err := LoadTrace(filepath.Join(t.TempDir(), "missing"), 0); err == nil {
		t.Error("a missing trace file was accepted")
	}
	other := filepath.Join(t.TempDir(), "other.trace")
	if err := os.WriteFile(other, []byte("# OTHER 1 1\n0 0 0 10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadTrace(other, 0); err == nil {
		t.Error("a trace file whose name has no settings was accepted")
	}
}
