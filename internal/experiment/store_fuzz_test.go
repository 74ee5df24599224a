package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// genuineEntry reports whether blob is an intact store entry for fp: the
// only bytes Get may serve as a hit.
func genuineEntry(blob []byte, fp string) bool {
	var e storeEntry
	if json.Unmarshal(blob, &e) != nil {
		return false
	}
	sum := sha256.Sum256(e.Payload)
	return e.V == 1 && e.Fingerprint == fp && e.Sum == hex.EncodeToString(sum[:])
}

// FuzzStoreGet asserts a store entry file holding arbitrary bytes never
// panics Get and is served as a miss unless it is an intact entry for
// the requested key. Every execution rewrites the entry file, so short
// runs should cap input minimization (-fuzzminimizetime 100x).
func FuzzStoreGet(f *testing.F) {
	res := fakeResult(f, 1)
	s, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(res); err != nil {
		f.Fatal(err)
	}
	path, err := s.path(res.Fingerprint)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("not json at all"))
	f.Add([]byte(`{"v":1,"fingerprint":"` + res.Fingerprint + `","sum":"","payload":null}`))
	f.Add([]byte{})
	// Intact entries of the flow-cell and oracle-cell result shapes under
	// the same key, so decoding those fields is fuzzed too.
	shaped := func(mod func(r *CellResult)) []byte {
		r := *res
		mod(&r)
		alt, err := OpenStore(f.TempDir())
		if err != nil {
			f.Fatal(err)
		}
		if err := alt.Put(&r); err != nil {
			f.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(alt.Root(), r.Fingerprint[:2], r.Fingerprint+".json"))
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	f.Add(shaped(func(r *CellResult) {
		cfg := core.DefaultConfig()
		cfg.LoadBalance = true
		r.Cell.Flow, r.Cell.Loops, r.Counters = &cfg, 2, nil
	}))
	f.Add(shaped(func(r *CellResult) {
		r.Cell = Cell{Kind: CellOracle, Scenario: "DART", Scale: "tiny", Seed: 1, Memory: 600}
		r.Summary = metrics.Summary{}
		r.Oracle = &OracleSummary{Scenario: "DART", Seed: 1, Rate: 250, Packets: 40, Deliverable: 31, UpperBound: 0.775, MeanDelay: 86400.5}
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(res.Fingerprint)
		if !ok {
			return
		}
		if !genuineEntry(data, res.Fingerprint) {
			t.Fatalf("damaged entry served as a hit: %q", data)
		}
		if got.Fingerprint != res.Fingerprint {
			t.Fatalf("hit for %s carries fingerprint %s", res.Fingerprint, got.Fingerprint)
		}
	})
}
