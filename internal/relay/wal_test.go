package relay

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"decoydb/internal/wal"
)

// These tests cover the durable spool: a forwarder whose retransmission
// buffer is backed by internal/wal survives being torn down and rebuilt
// over the same directory, and the collector's cross-epoch dedup keeps
// the replay from ever double-counting.

// refusedAddr is a loopback address that refuses every dial. A port
// reserved by binding :0 and closing it again can be drawn by a
// collector in a concurrently running test package (one with the same
// token acks, and moves the spool's mark); port 1 lies outside the
// ephemeral range such listeners draw from.
const refusedAddr = "127.0.0.1:1"

func openSpool(t testing.TB, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncBatch})
	if err != nil {
		t.Fatalf("open spool WAL: %v", err)
	}
	return l
}

// TestSpoolWALRestartResumes is the farm-crash drill: a forwarder that
// never reached the collector is torn down, a second forwarder process
// adopts the same spool directory, and every event lands at the
// collector exactly once — including the unframed tail that was still
// pending at teardown.
func TestSpoolWALRestartResumes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")

	// An address that refuses every dial: the first forwarder never
	// completes delivery, so everything stays spooled.
	w1 := openSpool(t, dir)
	fwd1, err := NewForwardSink(ForwardOptions{
		Addrs: []string{refusedAddr}, Token: "tok", Farm: "durable",
		SpoolWAL: w1, FrameEvents: 32,
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 events: three full 32-event frames cut at enqueue time, plus a
	// 4-event tail that only Close journals.
	if err := fwd1.RecordBatch(testEvents(100)); err != nil {
		t.Fatal(err)
	}
	if err := fwd1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w1.Stats().AppendedBatches; got != 4 {
		t.Fatalf("spool WAL holds %d frames, want 4 (3 cut + 1 tail)", got)
	}

	// "Restart": a fresh forwarder over the same directory, now with a
	// live collector.
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
		Addrs: []string{addr}, Token: "tok", Farm: "durable",
		SpoolWAL: w2, FrameEvents: 32,
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := fwd2.Stats(); st.SpoolEvents != 100 || st.SpoolFrames != 4 {
		t.Fatalf("reloaded spool = %d events / %d frames, want 100/4", st.SpoolEvents, st.SpoolFrames)
	}
	waitFor(t, 5*time.Second, func() bool { return sink.len() == 100 }, "replayed spool delivery")

	// The restarted forwarder keeps working past the replayed tail.
	if err := fwd2.RecordBatch(testEvents(40)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sink.len() == 140 }, "post-restart delivery")
	fwd2.Flush()
	if err := fwd2.Close(); err != nil {
		t.Fatal(err)
	}

	if got := sink.len(); got != 140 {
		t.Fatalf("collector sink has %d events, want exactly 140", got)
	}
	cst := coll.Stats()
	if cst.DupEvents != 0 {
		t.Fatalf("clean restart produced %d duplicate events", cst.DupEvents)
	}
	if len(cst.Farms) != 1 || !cst.Farms[0].Durable {
		t.Fatalf("farm not marked durable: %+v", cst.Farms)
	}
	// Acks were persisted: the spool is fully marked, so a third process
	// would replay nothing.
	if mark, last := w2.Mark(), w2.LastSeq(); mark != last {
		t.Fatalf("spool mark = %d, LastSeq = %d — acked frames would replay", mark, last)
	}
}

// TestDurableCrossEpochDedup is the crash-window drill: frames the
// collector ingested but whose ack never reached the old farm process
// are replayed by the new process under a fresh epoch. Because the farm
// is durable, the collector must keep its sequence high-water mark
// across the epoch change and classify the replay as duplicates — then
// accept the next fresh sequence.
func TestDurableCrossEpochDedup(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spool")

	// Fabricate the crashed farm's spool: two journaled frames, no mark
	// (the acks never made it back).
	w1 := openSpool(t, dir)
	if _, err := w1.Append(testEvents(8), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Append(testEvents(8)[4:], nil); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// The collector already ingested seq 1..2 under the old session; its
	// restored mark says so (CollectorOptions.Farms is exactly what
	// dbcollect rebuilds from its own journal on reopen).
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{
		Token: "tok",
		Farms: map[string]FarmMark{"durable": {Epoch: 0xABCD, LastSeq: 2}},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startCollector(t, coll)
	defer stop()

	w2 := openSpool(t, dir)
	defer w2.Close()
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{addr}, Token: "tok", Farm: "durable",
		SpoolWAL:   w2,
		MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The replayed frames (seq 1..2) must be acked as duplicates, never
	// ingested; the forwarder's spool must drain on those acks.
	waitFor(t, 5*time.Second, func() bool { return fwd.Stats().SpoolFrames == 0 }, "dup replay acked")
	if got := sink.len(); got != 0 {
		t.Fatalf("collector re-ingested %d replayed events", got)
	}

	// Fresh traffic continues the durable sequence space at seq 3.
	if err := fwd.RecordBatch(testEvents(5)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return sink.len() == 5 }, "post-replay delivery")
	fwd.Flush()
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}

	cst := coll.Stats()
	if cst.DupFrames != 2 || cst.DupEvents != 12 {
		t.Fatalf("dup accounting = %d frames / %d events, want 2/12", cst.DupFrames, cst.DupEvents)
	}
	if cst.Events != 5 {
		t.Fatalf("ingested %d events, want 5", cst.Events)
	}
	if len(cst.Farms) != 1 || cst.Farms[0].LastSeq != 3 || !cst.Farms[0].Durable {
		t.Fatalf("farm state after replay: %+v", cst.Farms)
	}
}

// TestSourceTagRoundTrip covers the provenance annotation a durable
// collector journals with each ingested batch.
func TestSourceTagRoundTrip(t *testing.T) {
	tag := EncodeSourceTag("farm-9", 0xDEAD, 42)
	farm, epoch, seq, ok := DecodeSourceTag(tag)
	if !ok || farm != "farm-9" || epoch != 0xDEAD || seq != 42 {
		t.Fatalf("round trip = (%q, %#x, %d, %v)", farm, epoch, seq, ok)
	}
	for _, bad := range [][]byte{nil, {}, {1}, tag[:len(tag)-1], append(append([]byte(nil), tag...), 0)} {
		if _, _, _, ok := DecodeSourceTag(bad); ok {
			t.Fatalf("DecodeSourceTag accepted %v", bad)
		}
	}
}

// BenchmarkRelayThroughputWAL is BenchmarkRelayThroughput with the
// spool journaled to disk (interval fsync): the cost of durable
// forwarding over loopback TCP.
func BenchmarkRelayThroughputWAL(b *testing.B) {
	sink := &memSink{}
	coll, err := NewCollector(CollectorOptions{Token: "bench"}, sink)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go coll.Serve(ln)
	defer coll.Close()

	w, err := wal.Open(wal.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	fwd, err := NewForwardSink(ForwardOptions{
		Addrs: []string{ln.Addr().String()}, Token: "bench", Farm: "bench",
		Block:    true,
		SpoolWAL: w,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fwd.Close()

	const batch = 256
	events := testEvents(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fwd.RecordBatch(events); err != nil {
			b.Fatal(err)
		}
	}
	fwd.Flush()
	b.StopTimer()
	total := float64(b.N) * batch
	b.ReportMetric(total/b.Elapsed().Seconds(), "events/s")
}
