package experiment

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// fakeResult builds a store payload without running a simulation: the
// store trusts the caller's fingerprint and only guards integrity.
func fakeResult(t testing.TB, seed int64) *CellResult {
	t.Helper()
	cell := Cell{Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: seed}
	fp, err := cell.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return &CellResult{
		Cell:        cell,
		Fingerprint: fp,
		Summary:     metrics.Summary{Method: "DTN-FLOW", Generated: int(100 + seed), Delivered: 90, SuccessRate: 0.9},
	}
}

func entryPath(t *testing.T, s *Store, fp string) string {
	t.Helper()
	path := filepath.Join(s.Root(), fp[:2], fp+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("expected store entry at %s: %v", path, err)
	}
	return path
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := fakeResult(t, 1)
	if _, ok := s.Get(res.Fingerprint); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put(res); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(res.Fingerprint)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.Summary != res.Summary || got.Cell != res.Cell || got.Fingerprint != res.Fingerprint {
		t.Errorf("round trip mangled the result:\ngot  %+v\nwant %+v", got, res)
	}
	if n := s.Len(); n != 1 {
		t.Errorf("store holds %d entries, want 1", n)
	}
}

// TestStoreCorruption checks the cache contract: any damaged entry —
// flipped payload byte, truncation, junk — is a miss, never an error,
// and a fresh Put repairs it.
func TestStoreCorruption(t *testing.T) {
	res := fakeResult(t, 2)
	corruptions := map[string]func([]byte) []byte{
		"flipped-byte": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			// Flip a byte inside the payload (past the header fields).
			c[len(c)/2] ^= 0x01
			return c
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"junk":      func([]byte) []byte { return []byte("not json at all") },
		"empty":     func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(res); err != nil {
				t.Fatal(err)
			}
			path := entryPath(t, s, res.Fingerprint)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(blob), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(res.Fingerprint); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			// The miss must be recoverable: re-put, then hit.
			if err := s.Put(res); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(res.Fingerprint); !ok || got.Summary != res.Summary {
				t.Fatal("store did not recover from corruption")
			}
		})
	}
}

// TestStoreWrongKey plants a valid entry under the wrong fingerprint
// path — internally consistent but misfiled — and expects a miss.
func TestStoreWrongKey(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := fakeResult(t, 1), fakeResult(t, 2)
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	src := entryPath(t, s, a.Fingerprint)
	dst := filepath.Join(s.Root(), b.Fingerprint[:2], b.Fingerprint+".json")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	blob, _ := os.ReadFile(src)
	if err := os.WriteFile(dst, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(b.Fingerprint); ok {
		t.Fatal("entry stored under the wrong key served as a hit")
	}
}

func TestStoreMalformedFingerprint(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"", "short", "../../../../etc/passwd", string(make([]byte, 64))} {
		if _, ok := s.Get(fp); ok {
			t.Errorf("malformed fingerprint %q hit", fp)
		}
	}
	if err := s.Put(&CellResult{Fingerprint: "nope"}); err == nil {
		t.Error("put with malformed fingerprint accepted")
	}
}

// TestStoreConcurrentWriters hammers one key from many goroutines: every
// Put must succeed (atomic temp+rename) and the surviving entry must be
// valid.
func TestStoreConcurrentWriters(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := fakeResult(t, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(res); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	got, ok := s.Get(res.Fingerprint)
	if !ok || got.Summary != res.Summary {
		t.Fatal("entry invalid after concurrent writes")
	}
	if n := s.Len(); n != 1 {
		t.Errorf("store holds %d entries after same-key writes, want 1", n)
	}
}

// TestStoreKeyFieldOrderStability pins the content address to the data,
// not the Go declaration: a cell decoded into a field-reordered clone of
// the Cell struct must produce the same store key.
func TestStoreKeyFieldOrderStability(t *testing.T) {
	type reorderedCell struct {
		Mult     int     `json:"mult,omitempty"`
		Rate     float64 `json:"rate,omitempty"`
		Seed     int64   `json:"seed"`
		Method   string  `json:"method"`
		Scale    string  `json:"scale,omitempty"`
		Scenario string  `json:"scenario"`
		Kind     string  `json:"kind,omitempty"`
	}
	cell := Cell{Kind: "run", Scenario: "DNET", Scale: "tiny", Method: "PROPHET", Seed: 4}
	re := reorderedCell{Kind: "run", Scenario: "DNET", Scale: "tiny", Method: "PROPHET", Seed: 4}
	type keyed struct {
		Engine string `json:"engine"`
		Cell   any    `json:"cell"`
	}
	orig, err := FingerprintJSON(keyed{Engine: "e", Cell: cell})
	if err != nil {
		t.Fatal(err)
	}
	reFP, err := FingerprintJSON(keyed{Engine: "e", Cell: re})
	if err != nil {
		t.Fatal(err)
	}
	if orig != reFP {
		t.Errorf("store key depends on struct field order: %s vs %s", orig, reFP)
	}
}

// TestStoreServesEverySpelling checks a store entry written under one
// spelling of a cell serves another spelling of the same run, and that
// RunCells hands back the cell as requested: Tiny DART's default rate
// (200) and memory (2000 kB) spelled out are the default cell, so the
// results stay byte-identical whatever spelling filled the store.
func TestStoreServesEverySpelling(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stored := fakeResult(t, 1)
	if err := store.Put(stored); err != nil {
		t.Fatal(err)
	}
	spelled := stored.Cell
	spelled.Rate, spelled.Memory = 200, 2000
	results, err := RunCells([]Cell{spelled}, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if hits, puts := store.Counts(); hits != 1 || puts != 1 {
		t.Fatalf("%d served, %d stored, want the one cell served from the store after the one Put", hits, puts)
	}
	if got := results[0]; got.Cell != spelled || got.Summary != stored.Summary || got.Fingerprint != stored.Fingerprint {
		t.Errorf("served %+v, want the stored summary under the requested cell %+v", *got, spelled)
	}
}
