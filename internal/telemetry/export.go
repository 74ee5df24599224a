package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/trace"
)

// Meta identifies the run a recording came from; it is written as the
// first JSONL line so the inspector can label its output and size its matrices.
type Meta struct {
	Scenario  string     `json:"scenario"`
	Method    string     `json:"method"`
	Seed      int64      `json:"seed"`
	Nodes     int        `json:"nodes"`
	Landmarks int        `json:"landmarks"`
	Unit      trace.Time `json:"unit"`
	TTL       trace.Time `json:"ttl"`
	Warmup    trace.Time `json:"warmup"`
	// Physics: the engine-config fields the oracle needs to reproduce
	// the run offline (dtnflow-inspect -regret). All omitempty, so
	// recordings from before these fields read back fine; the regret
	// join falls back to the paper defaults when they are zero.
	PacketSize          int64   `json:"packet_size,omitempty"`
	NodeMemory          int64   `json:"node_memory,omitempty"`
	StationMemory       int64   `json:"station_memory,omitempty"`
	LinkRate            float64 `json:"link_rate,omitempty"`
	MaxContactTransfers int     `json:"max_contact_transfers,omitempty"`
	// DisruptArg is the -disrupt argument the run was perturbed with
	// (preset name or spec-file path), so replays can re-derive the
	// perturbed trace the engine actually saw.
	DisruptArg string `json:"disrupt_arg,omitempty"`
	// Disruptions is the run's disruption timeline (empty for a
	// steady-state run); internal/disrupt compiles it from the scenario's
	// spec. Replay analyses segment the recording around these events —
	// see Log.Resilience.
	Disruptions []Disruption `json:"disruptions,omitempty"`
}

// Disruption is one scenario-perturbation event: an outage edge, a link
// fault edge, a churn departure or return, a drift onset, or a flash
// crowd edge. A and B carry kind-specific identifiers (landmark, node,
// or link endpoints).
type Disruption struct {
	T    trace.Time `json:"t"`
	Kind string     `json:"kind"`
	A    int        `json:"a,omitempty"`
	B    int        `json:"b,omitempty"`
}

// jsonlHeader wraps Meta so the first line is distinguishable from an
// event line.
type jsonlHeader struct {
	Meta *Meta `json:"meta"`
}

// WriteJSONL writes the recording as one JSON object per line: a meta
// header first, then every held event in chronological order.
func (r *Recorder) WriteJSONL(w io.Writer, meta Meta) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Meta: &meta}); err != nil {
		return err
	}
	for _, ev := range r.Events(nil) {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL writes a loaded (or snapshotted) log back out in the same
// format Recorder.WriteJSONL produces, so analyses can be re-run from a
// re-exported recording bit for bit.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Meta: &l.Meta}); err != nil {
		return err
	}
	for _, ev := range l.Events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Log is a loaded recording: the run's meta plus its events in
// chronological order. Build one with ReadJSONL or from a live recorder
// via NewLog.
type Log struct {
	Meta   Meta
	Events []Event
}

// NewLog snapshots a live recorder into a Log (no file round-trip).
func NewLog(r *Recorder, meta Meta) *Log {
	return &Log{Meta: meta, Events: r.Events(nil)}
}

// ReadJSONL loads a recording written by WriteJSONL. A missing meta
// header is tolerated (the meta is zero and landmark counts are inferred
// by the analyses).
func ReadJSONL(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	log := &Log{}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			var hdr jsonlHeader
			if err := json.Unmarshal([]byte(line), &hdr); err == nil && hdr.Meta != nil {
				log.Meta = *hdr.Meta
				continue
			}
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("telemetry: bad event line %q: %w", line, err)
		}
		log.Events = append(log.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return log, nil
}
