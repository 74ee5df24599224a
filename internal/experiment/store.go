package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Store is the content-addressed result store: one file per cell result,
// keyed by the canonical run fingerprint (scenario spec + method + seed +
// engine version, hashed over canonical JSON — Cell.Fingerprint).
// Because the key commits to everything that determines the result, a hit
// is always valid to reuse: re-running a sweep against a warm store is
// pure cache hits, and two stores populated by different processes hold
// byte-identical entries.
//
// Layout: <root>/<fp[:2]>/<fp>.json — a two-level fan-out so huge sweeps
// don't pile one directory. Each entry embeds the SHA-256 of its payload;
// Get verifies it (and the key) on every read, and any mismatch — torn
// write, disk rot, hand-edit — is reported as a miss, never an error: the
// store is a cache, and the worst a corrupt entry may cost is a re-run.
//
// Writes are atomic (temp file in the entry's directory, then rename), so
// concurrent writers of the same key are safe: both write complete
// entries, the second rename wins, and since entries are deterministic
// the content is identical either way.
type Store struct {
	root       string
	hits, puts atomic.Int64
}

// storeEntry is the on-disk shape. Sum is the hex SHA-256 of the exact
// Payload bytes (json.RawMessage preserves them verbatim).
type storeEntry struct {
	V           int             `json:"v"`
	Fingerprint string          `json:"fingerprint"`
	Sum         string          `json:"sum"`
	Payload     json.RawMessage `json:"payload"`
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("experiment: empty store path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: open store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) path(fp string) (string, error) {
	if len(fp) != 2*sha256.Size || fp != filepath.Base(fp) {
		return "", fmt.Errorf("experiment: malformed fingerprint %q", fp)
	}
	if _, err := hex.DecodeString(fp); err != nil {
		return "", fmt.Errorf("experiment: malformed fingerprint %q", fp)
	}
	return filepath.Join(s.root, fp[:2], fp+".json"), nil
}

// Get returns the stored result for fp, or (nil, false) on a miss. A
// present-but-corrupt entry (bad JSON, hash mismatch, key mismatch) is a
// miss: the caller re-executes and Put overwrites the bad entry.
func (s *Store) Get(fp string) (*CellResult, bool) {
	path, err := s.path(fp)
	if err != nil {
		return nil, false
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var e storeEntry
	if err := json.Unmarshal(blob, &e); err != nil {
		return nil, false
	}
	sum := sha256.Sum256(e.Payload)
	if e.V != 1 || e.Fingerprint != fp || e.Sum != hex.EncodeToString(sum[:]) {
		return nil, false
	}
	res := &CellResult{}
	if err := json.Unmarshal(e.Payload, res); err != nil {
		return nil, false
	}
	if res.Fingerprint != fp {
		return nil, false
	}
	s.hits.Add(1)
	return res, true
}

// Put stores res under its fingerprint, atomically.
func (s *Store) Put(res *CellResult) error {
	s.puts.Add(1)
	path, err := s.path(res.Fingerprint)
	if err != nil {
		return err
	}
	payload, err := CanonicalJSON(res)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	blob, err := json.Marshal(storeEntry{
		V:           1,
		Fingerprint: res.Fingerprint,
		Sum:         hex.EncodeToString(sum[:]),
		Payload:     payload,
	})
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment: store put: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "put-*")
	if err != nil {
		return fmt.Errorf("experiment: store put: %w", err)
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("experiment: store put: %w", werr)
		}
		return fmt.Errorf("experiment: store put: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: store put: %w", err)
	}
	return nil
}

// Counts returns how many hits Get has served and how many results Put
// was asked to store since the store was opened.
func (s *Store) Counts() (hits, puts int64) { return s.hits.Load(), s.puts.Load() }

// Len walks the store and counts valid-looking entries (by name, not by
// hash — it exists for reports and tests, not integrity).
func (s *Store) Len() int {
	n := 0
	filepath.WalkDir(s.root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n
}
