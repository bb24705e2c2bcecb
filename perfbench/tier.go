package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"decoydb/internal/bus"
	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/geoip"
	"decoydb/internal/obs"
	"decoydb/internal/relay"
	"decoydb/internal/stream"
	"decoydb/internal/wal"
)

// Tier workload settings. liveRate is about a tenth of what tier-drain
// sustains on a 2-vCPU host, so tier-live offers a load the tier
// carries. A fresh /query over the recovered store costs 150-200 ms
// there under that load, so one live reader at queryRate stays well
// below saturation; a 20 s run gives it 40 requests, and p75 ten beyond
// it.
const (
	benchToken    = "bench-token"
	benchFarm     = "bench-farm"
	liveRate      = 20000 // events/s
	queryRate     = 2     // fresh /query requests/s
	tierSetupReps = 5
	reportReps    = 7
	ackTimeout    = 2 * time.Minute
	// drainNominalRate sizes tier-drain: a run of s seconds pushes
	// s*drainNominalRate events, rounded up to whole passes of the corpus.
	drainNominalRate = 300000 // events/s
)

// readQueries is how many back-to-back fresh queries the read phase
// issues against a finished capture. One in six to one in three
// overlaps a GC cycle and takes 2-3 times as long, so p75 needs more
// samples here than tier-live's spaced reader has.
const readQueries = 80

// tierRun is one tier workload run: the corpus and journal from the
// generator, where to put the run's own journals, and how to measure.
type tierRun struct {
	live    bool
	seconds time.Duration
	tr      *tracer // nil runs untraced
	work    string
	journal string
	corpus  []core.Event
	hash    string
}

// pipeline is one collector tier: a collector recovered from the
// pre-written journal, its store, analyzer and admin plane, and a
// WAL-spooled forwarder connected to it.
type pipeline struct {
	dir            string
	journal, spool *wal.Log
	store          *evstore.Store
	analyzer       *stream.Analyzer
	coll           *relay.Collector
	served         chan error
	admin          *obs.Server
	queryURL       string
	fwd            *relay.ForwardSink
	fwdSink        core.BatchSink // fwd, or its traced wrapper
	trk            *tracker       // nil when nothing follows events
	storeL, anaL   *layerSink
	fwdL           *layerSink
	query          *timedHandler
	replayed       int
	offered        int
	recoverDur     time.Duration
	firstAck       time.Duration
	setup          time.Duration
}

// setup builds a pipeline and times it as a restarted collector would
// see it: journal recovery, then the forwarder's first acknowledged
// frame. The journal is copied first, outside the timing, so every
// repetition recovers the same bytes.
func (r *tierRun) setup(rep int) (*pipeline, error) {
	tr := r.tr
	p := &pipeline{dir: filepath.Join(r.work, fmt.Sprintf("rep%d", rep))}
	jdir := filepath.Join(p.dir, "journal")
	if err := copyDir(r.journal, jdir); err != nil {
		return nil, err
	}
	// tier-live times every event against its schedule; the traced runs
	// follow every event across the tier.
	if r.live || r.tr != nil {
		p.trk = newTracker()
	}

	t0 := time.Now()
	var err error
	if p.journal, err = wal.Open(wal.Options{Dir: jdir}); err != nil {
		return nil, err
	}
	p.store = evstore.NewSharded(core.ExperimentStart, core.ExperimentDays, geoip.Default(), 0)
	farms := map[string]relay.FarmMark{}
	p.replayed, err = p.store.AttachWAL(p.journal, func(tag []byte) {
		if farm, epoch, seq, ok := relay.DecodeSourceTag(tag); ok {
			farms[farm] = relay.FarmMark{Epoch: epoch, LastSeq: seq}
		}
	})
	if err != nil {
		p.journal.Close()
		return nil, err
	}
	p.recoverDur = time.Since(t0)

	p.analyzer = stream.New(stream.Options{})
	var storeSink, anaSink core.Sink = p.store, p.analyzer
	if p.trk != nil {
		p.storeL = &layerSink{name: "store.commit", inner: p.store, tr: tr, leave: p.trk.atCommit}
		if r.tr != nil {
			p.storeL.enter = p.trk.atCollector
		}
		storeSink = wrapSink(p.storeL)
	}
	if r.tr != nil {
		p.anaL = &layerSink{name: "stream.ingest", inner: p.analyzer, tr: tr}
		anaSink = wrapSink(p.anaL)
	}
	if p.coll, err = relay.NewCollector(relay.CollectorOptions{Token: benchToken, Farms: farms}, storeSink, anaSink); err != nil {
		p.journal.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.journal.Close()
		return nil, err
	}
	p.served = make(chan error, 1)
	go func() { p.served <- p.coll.Serve(ln) }()

	var qh http.Handler = obs.NewQueryHandler(obs.QueryOptions{Store: p.store})
	if r.tr != nil {
		p.query = &timedHandler{inner: qh, tr: tr}
		qh = p.query
	}
	p.admin = obs.NewServer(obs.ServerOptions{Registry: obs.NewRegistry(), Query: qh})
	addr, err := p.admin.Start("127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	p.queryURL = "http://" + addr.String() + "/query?fresh=1"

	if p.spool, err = wal.Open(wal.Options{Dir: filepath.Join(p.dir, "spool")}); err != nil {
		p.close()
		return nil, err
	}
	t1 := time.Now()
	p.fwd, err = relay.NewForwardSink(relay.ForwardOptions{
		Addrs:        []string{ln.Addr().String()},
		Token:        benchToken,
		Farm:         benchFarm,
		Block:        !r.live,
		SpoolWAL:     p.spool,
		FlushTimeout: ackTimeout,
	})
	if err != nil {
		p.close()
		return nil, err
	}
	p.fwdSink = p.fwd
	if r.tr != nil {
		p.fwdL = &layerSink{name: "relay.record", inner: p.fwd, tr: tr, enter: p.trk.atForwarder}
		p.fwdSink = wrapSink(p.fwdL)
	}
	// The first corpus event is the frame whose ack ends set-up.
	first := r.corpus[:1]
	if p.trk != nil {
		p.trk.offer(first[0].Src.Addr(), t1)
	}
	if err := p.fwdSink.RecordBatch(first); err != nil {
		p.close()
		return nil, err
	}
	p.offered = 1
	if err := p.waitCommitted(1, 100*time.Microsecond, nil); err != nil {
		p.close()
		return nil, err
	}
	end := time.Now()
	p.firstAck, p.setup = end.Sub(t1), end.Sub(t0)
	if p.trk != nil {
		p.trk.resetSamples()
	}
	return p, nil
}

// waitCommitted polls until the collector has ingested n events of the
// benchmark's farm. lost, when set, counts events the tier dropped on
// the way; once they account for the shortfall, waiting longer is futile.
func (p *pipeline) waitCommitted(n int, every time.Duration, lost func() int) error {
	deadline := time.Now().Add(ackTimeout)
	for i := 1; ; i++ {
		got := int(p.coll.Stats().Events)
		if got >= n {
			return nil
		}
		if lost != nil && i%100 == 0 {
			if l := lost(); got+l >= n {
				return fmt.Errorf("%d of %d events were dropped before the collector", l, n)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("collector ingested %d of %d events within %v", got, n, ackTimeout)
		}
		time.Sleep(every)
	}
}

// dropped counts the events the bus and the forwarder have shed.
func (p *pipeline) dropped(b *bus.Bus) func() int {
	return func() int { return int(b.Stats().Dropped + p.fwd.Stats().Shed) }
}

// close stops every goroutine the pipeline started and closes its
// journals. Safe on a partly built pipeline.
func (p *pipeline) close() {
	if p.fwd != nil {
		_ = p.fwd.Close() // errors surface through Stats checks
	}
	if p.spool != nil {
		_ = p.spool.Close()
	}
	if p.admin != nil {
		_ = p.admin.Close()
	}
	if p.coll != nil {
		_ = p.coll.Close()
		if p.served != nil {
			<-p.served
		}
	}
	if p.journal != nil {
		_ = p.journal.Close()
	}
}

// report times the post-collection view every report over the
// collector's store is computed from: the merged snapshot and its
// per-source records, as experiments.Build ends with.
func (p *pipeline) report() time.Duration {
	t := time.Now()
	_ = p.store.Snapshot().Recs()
	return time.Since(t)
}

// runTier runs tier-drain or tier-live and returns its result.
func runTier(r *tierRun) (*result, error) {
	res := newResult()

	// Set-up repetitions; the last pipeline is the one measured.
	var setups, recovers, acks []float64
	var p *pipeline
	for rep := 0; rep < tierSetupReps; rep++ {
		if rep == tierSetupReps-1 {
			res.rssReset = resetPeakRSS()
		} else {
			runtime.GC()
		}
		q, err := r.setup(rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, q.setup.Seconds())
		recovers = append(recovers, q.recoverDur.Seconds())
		acks = append(acks, ms(q.firstAck))
		if rep < tierSetupReps-1 {
			q.close()
			if err := os.RemoveAll(q.dir); err != nil {
				return nil, err
			}
		}
		p = q
	}
	defer p.close()
	res.outputs["corpus_events"] = len(r.corpus)

	var ph phase
	var err error
	if r.live {
		ph, err = r.livePhase(p)
	} else {
		ph, err = r.drainPhase(p)
	}
	if err != nil {
		return nil, err
	}
	// The collector ingests a frame before it acks it; let the last acks
	// reach the forwarder before its counters are checked.
	p.fwd.Flush()
	res.check(p.trk == nil || p.trk.unmatched == 0, "%d events crossed a layer without a matching offer", unmatched(p.trk))
	r.checkTier(p, ph, res)

	m := res.metrics
	m["setup_s"] = median(setups)
	m["events_per_s"] = ph.eventsPerS
	m["cpu_ms_per_kevent"] = ms(ph.proc.cpu) / (float64(ph.events) / 1000)
	m["peak_rss_mb"] = peakRSSMB()

	// The read phase, traced runs only, as its figures are per-layer:
	// back-to-back fresh queries on the finished capture, then the
	// snapshot the reports start from. The corpus is the generator's, not
	// the collector's: drop it so the phase's garbage collections scan
	// only the tier's own heap.
	var reads queryLoad
	if r.tr != nil {
		r.corpus = nil
		quiesce()
		served := p.query.count()
		reads = readBackToBack(context.Background(), p.queryURL, readQueries)
		res.check(reads.failed == 0, "%d of %d queries failed: %s", reads.failed, reads.attempted, reads.lastErr)
		res.check(reads.decreased == 0, "%d query responses reported fewer events than an earlier one", reads.decreased)
		res.failed += reads.failed
		var reports []float64
		for i := 0; i < reportReps; i++ {
			reports = append(reports, p.report().Seconds())
		}
		m["read.query_p50_ms"] = quantile(reads.lat, 0.50)
		m["read.query_p75_ms"] = quantile(reads.lat, 0.75)
		m["obs.query_serve_p50_ms"] = median(p.query.since(served))
		m["report_s"] = median(reports)
	}
	if r.live {
		m["capture_lag_p90_ms"] = quantile(p.trk.lag, 0.90)
		m["capture_lag_p99_ms"] = quantile(p.trk.lag, 0.99)
		m["live.query_p50_ms"] = quantile(ph.live.lat, 0.50)
		m["live.query_p75_ms"] = quantile(ph.live.lat, 0.75)
	}

	m["setup.journal_recover_s"] = median(recovers)
	m["setup.first_ack_ms"] = median(acks)
	procLayerMetrics(m, ph.proc, ph.events)
	m["bus.mean_batch"] = ph.bus.MeanBatch()
	fs := p.fwd.Stats()
	m["relay.events_per_frame"] = float64(fs.EventsAcked) / float64(max(fs.FramesAcked, 1))
	m["relay.wire_bytes_per_event"] = float64(fs.WireBytes) / float64(max(fs.Enqueued, 1))
	m["wal.spool_bytes_per_event"] = float64(p.spool.Stats().AppendedBytes) / float64(p.offered)
	m["wal.journal_bytes_per_event"] = float64(p.journal.Stats().AppendedBytes) / float64(p.offered)
	if r.tr != nil {
		m["traced_events_per_s"] = ph.eventsPerS
		m["bus.wait_p99_ms"] = quantile(p.trk.busWait, 0.99)
		m["relay.record_ns_per_event"] = p.fwdL.nsPerEvent()
		m["relay.transit_p99_ms"] = quantile(p.trk.transit, 0.99)
		m["store.commit_ns_per_event"] = p.storeL.nsPerEvent()
		m["stream.ingest_ns_per_event"] = p.anaL.nsPerEvent()
	}
	if r.live {
		m["gen.late_p99_ms"] = quantile(ph.late, 0.99)
	}

	res.outputs["corpus_hash"] = r.hash
	res.outputs["journal_events"] = p.replayed
	res.outputs["unique_ips"] = p.store.UniqueIPs(evstore.Query{})
	res.outputs["events_per_pass"] = ph.perPass
	res.attempted = p.offered + ph.live.attempted + reads.attempted
	return res, nil
}

func unmatched(t *tracker) int {
	if t == nil {
		return 0
	}
	return t.unmatched
}

// phase is what a timed phase measured.
type phase struct {
	events     int // events offered in the timed phase
	perPass    int // events one pass of the workload offers
	eventsPerS float64
	proc       procDelta
	bus        bus.Stats
	late       []float64 // generator lateness, ms
	live       queryLoad // tier-live's reader, beside the commits
}

// drainPhase is tier-drain's timed phase: the corpus is pushed, pass
// after pass, as fast as a blocking forwarder accepts it, and each pass
// ends when the collector has ingested its last event. The number of
// passes is fixed by the run's seconds at drainNominalRate, so every run
// of a given length leaves the same store behind for the read phase.
func (r *tierRun) drainPhase(p *pipeline) (phase, error) {
	var ph phase
	passes := max(1, int(math.Ceil(r.seconds.Seconds()*drainNominalRate/float64(len(r.corpus)))))
	b := bus.New(bus.Options{Policy: bus.Block}, p.fwdSink)
	var rates []float64
	before := sampleProc()
	for pass := 0; pass < passes; pass++ {
		events := r.corpus
		if pass == 0 {
			events = events[1:] // the first event went out during set-up
		}
		t := time.Now()
		for _, e := range events {
			if p.trk != nil {
				p.trk.offer(e.Src.Addr(), time.Now())
			}
			b.Record(e)
		}
		p.offered += len(events)
		if err := p.waitCommitted(p.offered, time.Millisecond, p.dropped(b)); err != nil {
			b.Close()
			return ph, err
		}
		rates = append(rates, float64(len(events))/time.Since(t).Seconds())
		ph.events += len(events)
	}
	ph.proc = before.to(sampleProc())
	if err := b.Close(); err != nil {
		return ph, err
	}
	ph.bus = b.Stats()
	ph.eventsPerS = median(rates)
	ph.perPass = len(r.corpus)
	return ph, nil
}

// livePhase is tier-live's timed phase: an open-loop generator offers
// liveRate events/s while one reader issues queryRate fresh queries/s.
func (r *tierRun) livePhase(p *pipeline) (phase, error) {
	var ph phase
	n := int(liveRate * r.seconds.Seconds())
	if n >= len(r.corpus) {
		return ph, fmt.Errorf("corpus of %d events is too short for %d offered events", len(r.corpus), n)
	}
	b := bus.New(bus.Options{Policy: bus.Adaptive}, p.fwdSink)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	start := time.Now().Add(10 * time.Millisecond)
	stop := start.Add(r.seconds)
	read := make(chan queryLoad, 1)
	go func() { read <- readLoop(ctx, p.queryURL, queryRate, start, stop) }()

	before := sampleProc()
	interval := float64(time.Second) / liveRate
	ph.late = make([]float64, 0, n)
	for i := 0; i < n; {
		now := time.Now()
		due := start.Add(time.Duration(float64(i) * interval))
		if due.After(now) {
			time.Sleep(due.Sub(now))
			continue
		}
		for ; i < n; i++ {
			due = start.Add(time.Duration(float64(i) * interval))
			if due.After(now) {
				break
			}
			e := r.corpus[1+i]
			p.trk.offer(e.Src.Addr(), due)
			ph.late = append(ph.late, ms(time.Since(due)))
			b.Record(e)
		}
	}
	p.offered += n
	ph.events, ph.perPass = n, n
	werr := p.waitCommitted(p.offered, time.Millisecond, p.dropped(b))
	ph.live = <-read
	ph.proc = before.to(sampleProc())
	if err := b.Close(); err != nil {
		return ph, err
	}
	if werr != nil {
		return ph, werr
	}
	ph.bus = b.Stats()
	ph.eventsPerS = float64(n) / p.trk.lastCommit.Sub(start).Seconds()
	return ph, nil
}

// checkTier verifies the tier delivered every offered event exactly once.
func (r *tierRun) checkTier(p *pipeline, ph phase, res *result) {
	fs := p.fwd.Stats()
	cs := p.coll.Stats()
	as := p.analyzer.Stats()
	stored := int(p.store.Events())
	res.check(ph.bus.Dropped == 0 && ph.bus.Enqueued == ph.bus.Delivered,
		"bus enqueued %d, delivered %d, dropped %d", ph.bus.Enqueued, ph.bus.Delivered, ph.bus.Dropped)
	res.check(fs.Shed == 0 && fs.DroppedFrames == 0,
		"forwarder shed %d events, dropped %d frames", fs.Shed, fs.DroppedFrames)
	res.check(int(fs.EventsAcked) == p.offered, "forwarder acked %d of %d events", fs.EventsAcked, p.offered)
	res.check(stored == p.replayed+p.offered,
		"store holds %d events, want journal %d + offered %d", stored, p.replayed, p.offered)
	res.check(int(cs.Events) == p.offered, "collector ingested %d of %d events", cs.Events, p.offered)
	res.check(int(as.Events) == p.offered, "analyzer saw %d of %d events", as.Events, p.offered)
	res.check(ph.live.failed == 0, "%d of %d live queries failed: %s", ph.live.failed, ph.live.attempted, ph.live.lastErr)
	res.check(ph.live.decreased == 0, "%d live query responses reported fewer events than an earlier one", ph.live.decreased)
	res.failed += int(fs.Shed) + int(ph.bus.Dropped) + abs(stored-p.replayed-p.offered) + ph.live.failed
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// quiesce lets the host settle before a read phase is timed: the drain
// leaves hundreds of megabytes of journal pages for the kernel to write
// back, and the run's garbage for the collector.
func quiesce() {
	syscall.Sync()
	runtime.GC()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
