package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
)

// Canonical fingerprints are the single source of truth for identifying a
// run and its result: the content-addressed fleet store keys entries by
// Cell.Fingerprint, golden comparisons reduce a result set to one hash,
// and the determinism tests compare serial and parallel sweeps by the
// same reduction. Everything is built on CanonicalJSON so the hash
// depends only on the data — never on Go struct field order, map
// iteration, or encoder incidentals.

// CanonicalJSON renders v as canonical JSON: object keys sorted,
// numbers preserved exactly as encoding/json first rendered them, no
// insignificant whitespace. Two values that marshal to the same fields
// and numbers produce identical bytes even if their Go types declare the
// fields in different orders.
func CanonicalJSON(v any) ([]byte, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("experiment: canonical marshal: %w", err)
	}
	// Round-trip through the generic tree: maps re-marshal with sorted
	// keys, and json.Number keeps every numeric literal byte-exact (a
	// plain any would route int64s and float64s through float64).
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("experiment: canonical decode: %w", err)
	}
	out, err := json.Marshal(tree)
	if err != nil {
		return nil, fmt.Errorf("experiment: canonical remarshal: %w", err)
	}
	return out, nil
}

// FingerprintJSON returns the hex SHA-256 of v's canonical JSON.
func FingerprintJSON(v any) (string, error) {
	blob, err := CanonicalJSON(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// SummaryFingerprint reduces an ordered result set to one hash. Summary
// holds only ints and float64s and encoding/json round-trips float64
// exactly, so two fingerprints are equal iff every field of every summary
// is bit-identical — the comparison the determinism tests and the
// validation battery share.
func SummaryFingerprint(sums ...metrics.Summary) string {
	fp, err := FingerprintJSON(sums)
	if err != nil {
		// Summary contains no unmarshalable types; reaching this is a
		// programming error, not an input condition.
		panic(err)
	}
	return fp
}
