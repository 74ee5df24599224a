package synth

import (
	"testing"

	"repro/internal/trace"
)

// FuzzSmall asserts the compact generator always yields a structurally
// valid trace — sorted visits, indices in range, no node in two places at
// once — for arbitrary parameters. Seed corpus in testdata/fuzz/FuzzSmall.
func FuzzSmall(f *testing.F) {
	f.Add(int64(7), uint8(20), uint8(8), uint8(3), uint8(4), uint8(85), uint8(10))
	f.Add(int64(1), uint8(2), uint8(2), uint8(1), uint8(2), uint8(50), uint8(0))
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nodes, landmarks, days, cycle, follow, miss uint8) {
		cfg := SmallConfig{
			Seed:       seed,
			Nodes:      1 + int(nodes)%12,
			Landmarks:  1 + int(landmarks)%8,
			Days:       1 + int(days)%3,
			CycleLen:   int(cycle) % 6,
			FollowProb: float64(follow%101) / 100,
			MissProb:   float64(miss%101) / 100,
		}
		tr := Small(cfg)
		if err := tr.Validate(); err != nil {
			t.Fatalf("Small(%+v) produced invalid trace: %v", cfg, err)
		}
		if tr.NumNodes != cfg.Nodes || tr.NumLandmarks < cfg.Landmarks {
			t.Fatalf("Small(%+v) sized %d nodes / %d landmarks", cfg, tr.NumNodes, tr.NumLandmarks)
		}
		if dur := tr.Duration(); dur > trace.Time(cfg.Days)*trace.Day {
			t.Fatalf("Small(%+v) spans %d s, beyond %d days", cfg, dur, cfg.Days)
		}
	})
}

// FuzzStreamSpan asserts the streaming generators' Span equals a scan of
// the stream for arbitrary seeds, small populations and horizons, and
// logging loss up to every visit.
func FuzzStreamSpan(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint8(12), false)
	f.Add(int64(2), uint8(5), uint8(1), uint8(90), true)
	f.Add(int64(4), uint8(6), uint8(4), uint8(85), false)
	f.Add(int64(3), uint8(3), uint8(2), uint8(100), false)
	f.Fuzz(func(t *testing.T, seed int64, nodes, days, miss uint8, dnet bool) {
		n, d, m := 1+int(nodes)%12, int(days)%5, float64(miss%101)/100
		var open func() trace.Source
		if dnet {
			cfg := DefaultDNET()
			cfg.Seed, cfg.Buses, cfg.Landmarks, cfg.Routes, cfg.Days, cfg.MissProb = seed, n, 10, 3, d, m
			open = func() trace.Source { return tuning{workers: 1}.apply(DNETSource(cfg)) }
		} else {
			cfg := DefaultDART()
			cfg.Seed, cfg.Nodes, cfg.Landmarks, cfg.Communities, cfg.Days, cfg.MissProb = seed, n, 20, 4, d, m
			open = func() trace.Source { return tuning{workers: 1}.apply(DARTSource(cfg)) }
		}
		start, end := open().(trace.Spanner).Span()
		ws, we, err := trace.ScanSpan(open())
		if err != nil {
			t.Fatal(err)
		}
		if start != ws || end != we {
			t.Fatalf("Span = (%d, %d), ScanSpan = (%d, %d)", start, end, ws, we)
		}
	})
}
