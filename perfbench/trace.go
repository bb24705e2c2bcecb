package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/netip"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"decoydb/internal/core"
)

// This file holds the benchmark's instruments. Every one sits on a
// boundary between two layers, in the benchmark's own code, wrapping a
// call the pipeline already makes; nothing inside the program changes.

// span is one timed crossing of a layer boundary.
type span struct {
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"` // since the tracer started
	End   int64  `json:"end_ns"`
	N     int    `json:"events"`
}

// maxSpans bounds the in-memory span log; later spans are not kept.
const maxSpans = 1 << 18

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(layer string, start, end time.Time, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{layer, int64(start.Sub(t.t0)), int64(end.Sub(t.t0)), n})
	}
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSink wraps the sink of one layer: it counts the events and the
// time spent inside each delivered batch, and lets the caller observe
// the batch on entry and after the wrapped sink returns.
type layerSink struct {
	name   string
	inner  core.BatchSink
	tr     *tracer
	enter  func(events []core.Event, now time.Time)
	leave  func(events []core.Event, now time.Time)
	busy   atomic.Int64 // ns inside inner
	events atomic.Int64
}

// taggedLayerSink keeps core.TaggedBatchSink visible, so a deliverer
// that journals provenance tags (the relay collector) takes the same
// path through the wrapper as through the bare sink.
type taggedLayerSink struct {
	*layerSink
	tagged core.TaggedBatchSink
}

func (s taggedLayerSink) RecordBatchTagged(events []core.Event, tag []byte) error {
	return s.do(events, func() error { return s.tagged.RecordBatchTagged(events, tag) })
}

// wrapSink wraps inner, keeping its optional interfaces.
func wrapSink(l *layerSink) core.BatchSink {
	if t, ok := l.inner.(core.TaggedBatchSink); ok {
		return taggedLayerSink{l, t}
	}
	return l
}

func (s *layerSink) do(events []core.Event, call func() error) error {
	start := time.Now()
	if s.enter != nil {
		s.enter(events, start)
	}
	err := call()
	end := time.Now()
	if s.leave != nil {
		s.leave(events, end)
	}
	s.busy.Add(int64(end.Sub(start)))
	s.events.Add(int64(len(events)))
	s.tr.add(s.name, start, end, len(events))
	return err
}

func (s *layerSink) Record(e core.Event) {
	_ = s.do([]core.Event{e}, func() error { s.inner.Record(e); return nil })
}

func (s *layerSink) RecordBatch(events []core.Event) error {
	return s.do(events, func() error { return s.inner.RecordBatch(events) })
}

// Flush implements core.Flusher when the wrapped sink does.
func (s *layerSink) Flush() {
	if f, ok := s.inner.(core.Flusher); ok {
		f.Flush()
	}
}

// nsPerEvent is the mean time inside the wrapped sink per event.
func (s *layerSink) nsPerEvent() float64 {
	if s == nil || s.events.Load() == 0 {
		return 0
	}
	return float64(s.busy.Load()) / float64(s.events.Load())
}

// tracker follows events through the tier by source address. Every
// layer sees one source's events in the order the generator offered
// them (the bus shards by source and each hop keeps batch order), so the
// k-th event of a source seen at any boundary is the k-th one offered.
type tracker struct {
	mu   sync.Mutex
	srcs map[netip.Addr]*srcTrack
	// Latency samples in milliseconds, filled as events cross.
	busWait, transit, lag []float64
	// unmatched counts events that reached a boundary more often than
	// they were offered: a duplicate or a broken order.
	unmatched int
	// lastCommit is when the latest batch was committed.
	lastCommit time.Time
}

type srcTrack struct {
	due, fwd                []int64 // unix nanos per offered event
	busPos, collPos, lagPos int
}

func newTracker() *tracker { return &tracker{srcs: map[netip.Addr]*srcTrack{}} }

// offer registers the next event of src, due at the given time.
func (t *tracker) offer(src netip.Addr, due time.Time) {
	t.mu.Lock()
	s := t.srcs[src]
	if s == nil {
		s = &srcTrack{}
		t.srcs[src] = s
	}
	s.due = append(s.due, due.UnixNano())
	t.mu.Unlock()
}

// resetSamples drops the samples taken so far, keeping the positions.
func (t *tracker) resetSamples() {
	t.mu.Lock()
	t.busWait, t.transit, t.lag = nil, nil, nil
	t.mu.Unlock()
}

// atForwarder records the batch's entry into the relay forwarder.
func (t *tracker) atForwarder(events []core.Event, now time.Time) {
	ns := now.UnixNano()
	t.mu.Lock()
	for _, e := range events {
		s := t.srcs[e.Src.Addr()]
		if s == nil || s.busPos >= len(s.due) {
			t.unmatched++
			continue
		}
		t.busWait = append(t.busWait, float64(ns-s.due[s.busPos])/1e6)
		s.fwd = append(s.fwd, ns)
		s.busPos++
	}
	t.mu.Unlock()
}

// atCollector records the batch's entry into the collector's first sink.
func (t *tracker) atCollector(events []core.Event, now time.Time) {
	ns := now.UnixNano()
	t.mu.Lock()
	for _, e := range events {
		s := t.srcs[e.Src.Addr()]
		if s == nil || s.collPos >= len(s.fwd) {
			t.unmatched++
			continue
		}
		t.transit = append(t.transit, float64(ns-s.fwd[s.collPos])/1e6)
		s.collPos++
	}
	t.mu.Unlock()
}

// atCommit records the batch's commit into the collector's store.
func (t *tracker) atCommit(events []core.Event, now time.Time) {
	ns := now.UnixNano()
	t.mu.Lock()
	for _, e := range events {
		s := t.srcs[e.Src.Addr()]
		if s == nil || s.lagPos >= len(s.due) {
			t.unmatched++
			continue
		}
		t.lag = append(t.lag, float64(ns-s.due[s.lagPos])/1e6)
		s.lagPos++
	}
	t.lastCommit = now
	t.mu.Unlock()
}

// timedHandler times each request inside the wrapped handler.
type timedHandler struct {
	inner http.Handler
	tr    *tracer
	mu    sync.Mutex
	lat   []float64 // ms
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	end := time.Now()
	h.tr.add("obs.query", start, end, 0)
	h.mu.Lock()
	h.lat = append(h.lat, ms(end.Sub(start)))
	h.mu.Unlock()
}

// count is how many requests the handler has timed.
func (h *timedHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.lat)
}

// since returns the latencies of the requests after the first i.
func (h *timedHandler) since(i int) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.lat[i:])
}
