package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers a span can belong to. "bench" is the benchmark's own work: the
// generator, the poller and the batch loop around the calls it times.
const (
	layerBench        = "bench"
	layerLive         = "live"
	layerControlplane = "controlplane"
	layerFTSearch     = "ftsearch"
	layerEngine       = "engine"
)

var traceLayers = []string{layerBench, layerLive, layerControlplane, layerFTSearch, layerEngine}

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Req names the request the call served ("tuple", "shift",
// "crash", "cell") and ReqID identifies it, so every span of one tuple,
// shift, crash or cell shares an id. Weight is the number of calls the
// span stands for: per-tuple spans are sampled at a fixed stride.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	ReqID  int64  `json:"req_id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Weight int64  `json:"weight"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, and its methods cost one branch, so untraced
// runs time the same code.
type tracer struct {
	on     bool
	stride int64
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// tupleStride is the per-tuple span sampling stride: one source tuple in
// this many is traced through every hop it takes.
const tupleStride = 64

func newTracer(on bool) *tracer {
	return &tracer{on: on, stride: tupleStride, t0: time.Now()}
}

// now is the tracer clock: nanoseconds since the tracer was made.
func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// sampleTuple reports whether tuple seq is on the sampling stride.
func (tr *tracer) sampleTuple(seq int64) bool {
	return tr != nil && tr.on && seq%tr.stride == 0
}

// active reports whether unsampled (per-call) spans are recorded.
func (tr *tracer) active() bool { return tr != nil && tr.on }

// newID reserves a span id, so a span's children can name it as their
// parent before it ends.
func (tr *tracer) newID() uint64 { return tr.nextID.Add(1) }

// record stores one finished span and returns its id.
func (tr *tracer) record(layer, name, req string, reqID, start, end int64, parent uint64, weight int64) uint64 {
	id := tr.newID()
	tr.recordID(id, layer, name, req, reqID, start, end, parent, weight)
	return id
}

// recordID stores one finished span under a reserved id.
func (tr *tracer) recordID(id uint64, layer, name, req string, reqID, start, end int64, parent uint64, weight int64) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		Req: req, ReqID: reqID, Start: start, End: end, Weight: weight})
	tr.mu.Unlock()
}

// count returns how many spans have been recorded so far.
func (tr *tracer) count() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// selfTime returns each layer's self time in seconds: every span's
// duration minus the part its child spans cover, scaled by its weight.
func selfTime(spans []span) map[string]float64 {
	cover := make(map[uint64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			cover[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64, len(traceLayers))
	for _, l := range traceLayers {
		out[l] = 0
	}
	for _, s := range spans {
		self := s.End - s.Start - cover[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Layer] += float64(self*s.Weight) / 1e9
	}
	return out
}

// spanDurations returns the durations in ns of the spans with this name,
// and their total weighted time in seconds.
func spanDurations(spans []span, name string) (durs []float64, totalS float64) {
	for _, s := range spans {
		if s.Name == name {
			d := float64(s.End - s.Start)
			durs = append(durs, d)
			totalS += d * float64(s.Weight) / 1e9
		}
	}
	return durs, totalS
}

// writeSpans writes the spans as JSON lines, in start order, to
// dir/<workload>-seed<seed>.jsonl.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create span directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create span file: %w", err)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("flush spans: %w", err)
	}
	return path, f.Close()
}
