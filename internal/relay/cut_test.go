package relay

import (
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/evcodec"
	"decoydb/internal/wal"
)

// These tests cover when the forwarder cuts a frame: a full FrameEvents
// frame at once, a partial one only while no frame written on the
// current connection awaits its ack.

// heldSink is a collector sink that holds every batch until released,
// so the collector's ack for it waits too.
type heldSink struct {
	memSink
	entered  atomic.Int64 // batches that reached RecordBatch
	release  chan struct{}
	openOnce sync.Once
}

func newHeldSink() *heldSink { return &heldSink{release: make(chan struct{})} }

func (h *heldSink) RecordBatch(events []core.Event) error {
	h.entered.Add(1)
	<-h.release
	return h.memSink.RecordBatch(events)
}

func (h *heldSink) Record(e core.Event) { _ = h.RecordBatch([]core.Event{e}) }

// open lets every held and future batch through.
func (h *heldSink) open() { h.openOnce.Do(func() { close(h.release) }) }

// settle gives the forwarder's write loop time to act on what it was
// just given, so a test can observe that it did not cut a frame.
func settle() { time.Sleep(50 * time.Millisecond) }

// TestPartialFrameWaitsForAck: small batches recorded while a frame is
// unacked gather into one frame, cut when the ack arrives — not one
// frame per RecordBatch — and Flush drains that tail.
func TestPartialFrameWaitsForAck(t *testing.T) {
	sink := newHeldSink()
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()
	defer sink.open()

	fwd, err := NewForwardSink(ForwardOptions{Addrs: []string{addr}, Token: "tok", Farm: "nagle", FrameEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	in := testEvents(11)
	if err := fwd.RecordBatch(in[:1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sink.entered.Load() == 1 }, "first frame at the collector")
	for i := 1; i < len(in); i += 2 {
		if err := fwd.RecordBatch(in[i : i+2]); err != nil {
			t.Fatal(err)
		}
		settle()
	}
	if st := fwd.Stats(); st.Frames != 1 || st.Pending != 10 {
		t.Fatalf("while frame 1 is unacked: %d frames, %d pending; want 1 frame, 10 pending", st.Frames, st.Pending)
	}

	sink.open()
	fwd.Flush()
	st := fwd.Stats()
	if st.Pending != 0 || st.SpoolFrames != 0 || st.EventsAcked != uint64(len(in)) {
		t.Fatalf("Flush left %d pending, %d spooled, %d acked of %d", st.Pending, st.SpoolFrames, st.EventsAcked, len(in))
	}
	if st.Frames != 2 {
		t.Fatalf("%d frames, want 2: the held-back batches must ship as one", st.Frames)
	}
	out := sink.snapshot()
	for i := range in {
		if out[i].User != in[i].User {
			t.Fatalf("event %d out of order: %s, want %s", i, out[i].User, in[i].User)
		}
	}
}

// TestCloseJournalsHeldTail: the partial tail held back behind an
// unacked frame is journaled by Close on a durable forwarder, so a
// restart would ship it.
func TestCloseJournalsHeldTail(t *testing.T) {
	sink := newHeldSink()
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()
	defer sink.open()

	w := openSpool(t, filepath.Join(t.TempDir(), "spool"))
	defer w.Close()
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addr}, Token: "tok", Farm: "tail",
		SpoolWAL: w, FrameEvents: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := testEvents(4)
	if err := fwd.RecordBatch(in[:1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sink.entered.Load() == 1 }, "first frame at the collector")
	if err := fwd.RecordBatch(in[1:]); err != nil {
		t.Fatal(err)
	}
	settle()
	if st := fwd.Stats(); st.Frames != 1 || st.Pending != 3 {
		t.Fatalf("before Close: %d frames, %d pending; want 1 frame, 3 pending", st.Frames, st.Pending)
	}
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.LastSeq(); got != 2 {
		t.Fatalf("spool WAL LastSeq = %d, want 2 (the unacked frame and the tail)", got)
	}
	var replayed []core.Event
	if err := w.Replay(w.Mark()+1, func(_ uint64, _ []byte, evs []core.Event) error {
		replayed = append(replayed, evs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(in) {
		t.Fatalf("spool WAL replays %d events, want %d", len(replayed), len(in))
	}
	for i := range in {
		if replayed[i].User != in[i].User {
			t.Fatalf("replayed event %d is %s, want %s", i, replayed[i].User, in[i].User)
		}
	}
}

// TestFullFramesCutWithoutAcks: a collector that reads frames but never
// acks holds back partial frames, yet RecordBatch still cuts every full
// FrameEvents frame, so pending stays below one frame.
func TestFullFramesCutWithoutAcks(t *testing.T) {
	a := startAckless(t, 0)
	defer a.stop()
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{a.addr()}, Token: "tok", Farm: "mute", FrameEvents: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	in := testEvents(41)
	if err := fwd.RecordBatch(in[:1]); err != nil {
		t.Fatal(err)
	}
	// HELLO and the first frame.
	waitFor(t, 5*time.Second, func() bool { return a.frames.Load() == 2 }, "first frame written")
	for i := 1; i < len(in); i++ {
		if err := fwd.RecordBatch(in[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if st := fwd.Stats(); st.Pending >= 8 {
			t.Fatalf("after %d events: %d pending, want fewer than FrameEvents", i+1, st.Pending)
		}
	}
	settle()
	if st := fwd.Stats(); st.Frames != 6 || st.Pending != 0 {
		t.Fatalf("%d frames, %d pending; want 6 frames (1 partial + 5 full), 0 pending", st.Frames, st.Pending)
	}
	waitFor(t, 5*time.Second, func() bool { return a.frames.Load() == 7 }, "full frames written without acks")
}

// TestRestartReloadsWirePayloads: the spool journals each frame's wire
// payload (BestSpeed, the relay default) instead of re-encoding it at
// the WAL's stored level, and a restarted forwarder reloads and
// delivers those frames exactly once.
func TestRestartReloadsWirePayloads(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")
	w1 := openSpool(t, dir)
	fwd1, err := NewForwardSink(ForwardOptions{
		Addrs: []string{refusedAddr}, Token: "tok", Farm: "reload",
		SpoolWAL: w1, FrameEvents: 16,
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := testEvents(64)
	if err := fwd1.RecordBatch(in); err != nil {
		t.Fatal(err)
	}
	if err := fwd1.Close(); err != nil {
		t.Fatal(err)
	}
	fst, wst := fwd1.Stats(), w1.Stats()
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if fst.Frames != 4 || wst.AppendedBatches != 4 {
		t.Fatalf("%d frames cut, %d journaled; want 4 and 4", fst.Frames, wst.AppendedBatches)
	}
	// A journal record is the wire frame's bytes plus one: record type
	// and tag length (3) replace the relay prologue (6), and the record
	// CRC adds 4. Equal sizes mean the spool holds the wire payload.
	if want := fst.WireBytes + fst.Frames; wst.AppendedBytes != want {
		t.Fatalf("journal appended %d bytes, want %d (wire bytes + 1 per frame)", wst.AppendedBytes, want)
	}
	if fst.CompressionRatio() <= 1 {
		t.Fatalf("wire compression ratio %.2f, want > 1 at BestSpeed", fst.CompressionRatio())
	}

	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()
	w2 := openSpool(t, dir)
	defer w2.Close()
	fwd2, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addr}, Token: "tok", Farm: "reload",
		SpoolWAL: w2, FrameEvents: 16,
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Frames and Enqueued count reloaded frames and never fall on acks,
	// which may already be arriving.
	if st := fwd2.Stats(); st.Frames != 4 || st.Enqueued != uint64(len(in)) {
		t.Fatalf("reloaded %d frames / %d events, want 4 / %d", st.Frames, st.Enqueued, len(in))
	}
	fwd2.Flush()
	if err := fwd2.Close(); err != nil {
		t.Fatal(err)
	}
	out := sink.snapshot()
	if len(out) != len(in) || coll.Stats().DupEvents != 0 {
		t.Fatalf("collector has %d events (%d dups), want %d exactly once", len(out), coll.Stats().DupEvents, len(in))
	}
	for i := range in {
		if out[i].User != in[i].User || out[i].Src != in[i].Src || !out[i].Time.Equal(in[i].Time) {
			t.Fatalf("event %d differs after reload: %+v", i, out[i])
		}
	}
}

// skewSpool journals a foreign batch ahead of the forwarder's first
// frame, so the WAL assigns a sequence one past the one the forwarder
// expects — the broken-ownership case the forwarder resyncs from.
type skewSpool struct {
	*wal.Log
	once sync.Once
}

func (s *skewSpool) AppendPayload(p evcodec.Payload, tag []byte) (uint64, error) {
	var err error
	s.once.Do(func() { _, err = s.Log.Append(testEvents(1), nil) })
	if err != nil {
		return 0, err
	}
	return s.Log.AppendPayload(p, tag)
}

// TestSpoolSequenceSkewResyncs: on a WAL sequence skew the forwarder
// adopts the WAL's sequence for the frame it already compressed, so the
// frame on the wire carries the journaled sequence, nothing is lost,
// and the skew surfaces via Err.
func TestSpoolSequenceSkewResyncs(t *testing.T) {
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "tok"}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()
	w := openSpool(t, filepath.Join(t.TempDir(), "spool"))
	defer w.Close()
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addr}, Token: "tok", Farm: "skew",
		SpoolWAL: &skewSpool{Log: w}, FrameEvents: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := testEvents(8)
	if err := fwd.RecordBatch(in); err != nil {
		t.Fatal(err)
	}
	fwd.Flush()
	err = fwd.Close()
	if err == nil || !strings.Contains(err.Error(), "sequence skew") {
		t.Fatalf("Close error = %v, want the sequence skew", err)
	}
	if got := sink.len(); got != len(in) {
		t.Fatalf("collector has %d events, want %d", got, len(in))
	}
	cst := coll.Stats()
	if len(cst.Farms) != 1 || cst.Farms[0].LastSeq != 2 {
		t.Fatalf("collector farms = %+v, want the frame at the journaled seq 2", cst.Farms)
	}
	if w.LastSeq() != 2 || w.Mark() != 2 {
		t.Fatalf("spool WAL LastSeq = %d, Mark = %d; want 2 and 2", w.LastSeq(), w.Mark())
	}
}
