// Command decoybench is the measuring half of the decoydb benchmark: it
// generates a workload's inputs from a seed (gen) and runs one workload,
// untraced or traced (run), printing one JSON result line. run.py in
// this directory builds it and drives both; README.md explains the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// result is what one run reports on stdout.
type result struct {
	metrics   map[string]float64
	outputs   map[string]any
	errors    []string
	attempted int
	failed    int
	rssReset  bool
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, outputs: map[string]any{}}
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

// procLayerMetrics derives the Go runtime's per-layer figures from a
// timed phase that handled events events.
func procLayerMetrics(m map[string]float64, d procDelta, events int) {
	n := float64(max(events, 1))
	m["proc.alloc_bytes_per_event"] = float64(d.allocBytes) / n
	m["proc.allocs_per_event"] = float64(d.allocObjs) / n
	if d.cpu > 0 {
		m["proc.gc_cpu_share"] = float64(d.gcCPU) / float64(d.cpu)
	}
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: decoybench gen|run [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = genCmd(os.Args[2:])
	case "run":
		err = runCmd(os.Args[2:])
	default:
		err = fmt.Errorf("unknown command %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "decoybench:", err)
		os.Exit(1)
	}
}

func genCmd(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	dir := fs.String("dir", "", "output directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("gen: -dir is required")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	g, err := generate(*seed, *dir)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(g)
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "", "paper-sim, tier-drain or tier-live")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long the timed phase lasts")
	trace := fs.Bool("trace", false, "wrap the layer boundaries and report per-layer metrics")
	dir := fs.String("dir", "", "generator output directory (tier workloads)")
	read := fs.Bool("read", false, "paper-sim: query the finished capture")
	spans := fs.String("spans", "", "traced runs: write the spans to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var tr *tracer
	if *trace {
		tr = newTracer()
	}

	var res *result
	var err error
	switch *workload {
	case "paper-sim":
		res, err = runPaperSim(*seed, tr, *read)
	case "tier-drain", "tier-live":
		if *dir == "" {
			return fmt.Errorf("run: -dir is required for %s", *workload)
		}
		corpus, hash, lerr := readCorpus(filepath.Join(*dir, "corpus.bin"))
		if lerr != nil {
			return lerr
		}
		work, werr := os.MkdirTemp(*dir, "run-")
		if werr != nil {
			return werr
		}
		defer os.RemoveAll(work)
		res, err = runTier(&tierRun{
			live:    *workload == "tier-live",
			seconds: dur,
			tr:      tr,
			work:    work,
			journal: filepath.Join(*dir, "journal"),
			corpus:  corpus,
			hash:    hash,
		})
	default:
		return fmt.Errorf("run: unknown workload %q", *workload)
	}
	if err != nil {
		return err
	}
	if *spans != "" {
		if err := tr.write(*spans); err != nil {
			return err
		}
	}
	out := map[string]any{
		"workload":  *workload,
		"trace":     *trace,
		"correct":   len(res.errors) == 0,
		"errors":    res.errors,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
		"outputs":   res.outputs,
		"provenance": map[string]any{
			"gomaxprocs":      runtime.GOMAXPROCS(0),
			"num_cpu":         runtime.NumCPU(),
			"go_version":      runtime.Version(),
			"peak_rss_scoped": res.rssReset,
			"paper_scale":     paperScale,
			"corpus_scale":    corpusScale,
			"live_rate":       liveRate,
			"query_rate":      queryRate,
			"read_queries":    readQueries,
		},
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}
