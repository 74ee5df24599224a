package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/experiment"
)

// frame prefixes blob with the wire's big-endian length header.
func frame(blob []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(blob)))
	return append(hdr[:], blob...)
}

// FuzzReadMsg asserts the frame decoder never panics on an arbitrary
// byte stream, and that every envelope it accepts has a type and
// survives a write/read round trip unchanged.
func FuzzReadMsg(f *testing.F) {
	for _, env := range []*Envelope{
		{Type: MsgHello, Hello: &Hello{Proto: ProtoVersion, Engine: "e", Name: "w1"}},
		{Type: MsgJob, Job: &Job{Seq: 3, Cell: experiment.Cell{Scenario: "DNET", Scale: "tiny", Method: "PER", Seed: 2}}},
		{Type: MsgResult, Result: &Result{Seq: 3, Res: fakeResult(f, 1), WallSec: 0.5}},
		{Type: MsgBye},
	} {
		var buf bytes.Buffer
		if err := writeMsg(&buf, env); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(frame([]byte(`{"type":""}`)))
	f.Add(frame([]byte(`{"type":"job","job":{"seq":"x"}}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := readMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		if env.Type == "" {
			t.Fatalf("accepted an envelope without a type: %q", data)
		}
		var buf bytes.Buffer
		if err := writeMsg(&buf, env); err != nil {
			return // re-encoding may outgrow the frame limit
		}
		again, err := readMsg(&buf)
		if err != nil {
			t.Fatalf("re-read of a written envelope failed: %v\ninput: %q", err, data)
		}
		if !reflect.DeepEqual(env, again) {
			t.Fatalf("envelope did not round-trip:\n%+v\nvs\n%+v", env, again)
		}
	})
}

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
