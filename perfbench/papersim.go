package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/evstore"
	"decoydb/internal/experiments"
	"decoydb/internal/geoip"
	"decoydb/internal/obs"
	"decoydb/internal/simnet"
)

// paperScale keeps the simulated capture CPU-bound for several seconds
// on a 2-vCPU host (about 526k events); paperSetupReps set-ups give
// setup_s its median.
//
// One process runs one capture. Every simulated session leaves a
// net.Pipe deadline timer armed for simnet's 30 s session bound, and
// the timers keep the pipes reachable until they fire, so a second
// capture in the same process would start with the first one's ~360 MB
// still live. run.py therefore repeats paper-sim in fresh processes.
const (
	paperScale     = 256
	paperSetupReps = 5
)

// runPaperSim runs one paper-sim iteration. Untraced, it is what
// dbreport -scale paperScale does: experiments.Build followed by every
// experiments.All artefact, each one timed; with read set, the finished
// capture is then queried back to back. Traced, experiments.Build takes
// no sinks, so the capture is repeated through simnet.Run with the
// store wrapped, at the same seed and scale, to see the capture's layers.
// A nil tracer runs untraced.
func runPaperSim(seed int64, tr *tracer, read bool) (*result, error) {
	ctx := context.Background()
	res := newResult()

	var setups, pops, hps []float64
	for i := 0; i < paperSetupReps; i++ {
		t0 := time.Now()
		if _, err := simnet.BuildPopulation(seed, paperScale, core.ExperimentDays, geoip.Default()); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		_ = simnet.BuildHoneypots(core.DefaultDeployment(), seed)
		t2 := time.Now()
		tr.add("setup.population", t0, t1, 0)
		tr.add("setup.honeypots", t1, t2, 0)
		setups = append(setups, t2.Sub(t0).Seconds())
		pops = append(pops, t1.Sub(t0).Seconds())
		hps = append(hps, t2.Sub(t1).Seconds())
	}
	res.rssReset = resetPeakRSS()
	m := res.metrics
	m["setup_s"] = median(setups)
	m["setup.population_s"] = median(pops)
	m["setup.honeypots_s"] = median(hps)
	if tr != nil {
		return res, tracedCapture(ctx, seed, res, tr)
	}

	before := sampleProc()
	ds, err := experiments.Build(ctx, seed, paperScale)
	built := sampleProc()
	if err != nil {
		return nil, err
	}
	bs := ds.Bus
	res.attempted += int(bs.Enqueued)
	res.failed += int(bs.Dropped + bs.Enqueued - bs.Delivered)
	res.check(bs.Enqueued == bs.Delivered && bs.Dropped == 0,
		"bus enqueued %d, delivered %d, dropped %d", bs.Enqueued, bs.Delivered, bs.Dropped)

	h := sha256.New()
	for _, e := range experiments.All {
		t := time.Now()
		a := e.Run(ds)
		m["report."+e.ID+"_ms"] = ms(time.Since(t))
		res.attempted++
		if a.Body == "" {
			res.failed++
			res.check(false, "artefact %s is empty", e.ID)
		}
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00", a.ID, a.Title, a.Body)
	}
	done := sampleProc()
	m["events_per_s"] = float64(bs.Delivered) / built.at.Sub(before.at).Seconds()
	m["cpu_ms_per_kevent"] = ms(before.to(done).cpu) / (float64(bs.Delivered) / 1000)
	m["peak_rss_mb"] = peakRSSMB()
	m["report_s"] = done.at.Sub(built.at).Seconds()

	if read {
		q, err := readCapture(ctx, ds.Store)
		if err != nil {
			return nil, err
		}
		res.attempted += q.attempted
		res.failed += q.failed
		res.check(q.failed == 0, "%d of %d queries failed: %s", q.failed, q.attempted, q.lastErr)
		res.check(q.decreased == 0, "%d query responses reported fewer events than an earlier one", q.decreased)
		m["read.query_p50_ms"] = quantile(q.lat, 0.50)
		m["read.query_p75_ms"] = quantile(q.lat, 0.75)
	}

	res.outputs["events"] = ds.Store.Events()
	res.outputs["unique_ips"] = ds.Store.UniqueIPs(evstore.Query{})
	res.outputs["logins"] = ds.Store.Logins(evstore.Query{})
	res.outputs["artefacts"] = len(experiments.All)
	res.outputs["artefacts_sha256"] = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// tracedCapture runs the capture through simnet.Run with the store's
// batch commits timed, and derives the capture's per-layer metrics.
func tracedCapture(ctx context.Context, seed int64, res *result, tr *tracer) error {
	runtime.GC()
	store := evstore.New(core.ExperimentStart, core.ExperimentDays, geoip.Default())
	commit := &layerSink{name: "store.commit", inner: store, tr: tr}
	before := sampleProc()
	sim, err := simnet.Run(ctx, simnet.Config{Seed: seed, Scale: paperScale}, wrapSink(commit))
	after := sampleProc()
	if err != nil {
		return fmt.Errorf("traced capture: %w", err)
	}
	tr.add("simnet.run", before.at, after.at, int(sim.Bus.Delivered))
	d := before.to(after)
	n := int(sim.Bus.Delivered)
	res.attempted += int(sim.Bus.Enqueued)
	res.failed += int(sim.Bus.Dropped + sim.Bus.Enqueued - sim.Bus.Delivered)
	res.check(sim.Bus.Enqueued == sim.Bus.Delivered && sim.Bus.Dropped == 0,
		"bus enqueued %d, delivered %d, dropped %d", sim.Bus.Enqueued, sim.Bus.Delivered, sim.Bus.Dropped)
	res.check(int(commit.events.Load()) == n, "store received %d of %d delivered events", commit.events.Load(), n)

	m := res.metrics
	procLayerMetrics(m, d, n)
	busy := time.Duration(commit.busy.Load())
	m["edge.residual_cpu_ms_per_kevent"] = ms(d.cpu-d.gcCPU-busy) / (float64(n) / 1000)
	m["bus.mean_batch"] = sim.Bus.MeanBatch()
	m["store.commit_ns_per_event"] = commit.nsPerEvent()

	// experiments.Build ends by marking institutional scanners and taking
	// the snapshot; so does this, so that the traced store's outputs and
	// its rate compare with the untraced run's.
	store.MarkInstitutional(sim.Population.Institutional)
	_ = store.Snapshot().Recs()
	built := time.Since(before.at)
	m["traced_events_per_s"] = float64(n) / built.Seconds()
	res.outputs["events"] = store.Events()
	res.outputs["unique_ips"] = store.UniqueIPs(evstore.Query{})
	res.outputs["logins"] = store.Logins(evstore.Query{})
	return nil
}

// readCapture serves the finished capture's store on an admin plane, as
// a collector would, and reads it back to back.
func readCapture(ctx context.Context, store *evstore.Store) (queryLoad, error) {
	srv := obs.NewServer(obs.ServerOptions{
		Registry: obs.NewRegistry(),
		Query:    obs.NewQueryHandler(obs.QueryOptions{Store: store}),
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return queryLoad{}, err
	}
	defer srv.Close()
	return readBackToBack(ctx, "http://"+addr.String()+"/query?fresh=1", readQueries), nil
}
