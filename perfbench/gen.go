package main

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"

	"decoydb/internal/core"
	"decoydb/internal/relay"
	"decoydb/internal/simnet"
	"decoydb/internal/wal"
)

// Generator settings. The corpus is one simulated 20-day capture at
// corpusScale; journalFarm names the pre-written collector journal's
// farm, which must differ from the live forwarder's farm name or the
// restored dedup mark would swallow the benchmark's own frames.
const (
	corpusScale  = 256
	journalFarm  = "journal-farm"
	journalBatch = relay.DefaultFrameEvents
)

// genResult is what the generator reports on stdout.
type genResult struct {
	Events int    `json:"events"`
	Hash   string `json:"hash"`
}

// generate simulates one capture from seed, writes it to dir/corpus.bin
// in the benchmark's own format and journals one copy of it, as a
// collector would have, under dir/journal.
func generate(seed int64, dir string) (genResult, error) {
	sink := &core.MemSink{}
	if _, err := simnet.Run(context.Background(), simnet.Config{Seed: seed, Scale: corpusScale}, sink); err != nil {
		return genResult{}, fmt.Errorf("simulate: %w", err)
	}
	events := sink.Events()
	sink.Reset()
	// The bus interleaves shards nondeterministically. Sessions have a
	// fixed virtual time and their own source port, so a stable sort on
	// (time, source) gives one order per seed while keeping each
	// session's events in the order they were emitted.
	slices.SortStableFunc(events, func(a, b core.Event) int {
		if c := a.Time.Compare(b.Time); c != 0 {
			return c
		}
		return a.Src.Compare(b.Src)
	})
	hash, err := writeCorpus(filepath.Join(dir, "corpus.bin"), events)
	if err != nil {
		return genResult{}, fmt.Errorf("write corpus: %w", err)
	}

	jdir := filepath.Join(dir, "journal")
	log, err := wal.Open(wal.Options{Dir: jdir, Sync: wal.SyncOff})
	if err != nil {
		return genResult{}, err
	}
	for i := 0; i < len(events); i += journalBatch {
		batch := events[i:min(i+journalBatch, len(events))]
		tag := relay.EncodeSourceTag(journalFarm, 1, uint64(i/journalBatch+1))
		if _, err := log.Append(batch, tag); err != nil {
			log.Close()
			return genResult{}, fmt.Errorf("journal: %w", err)
		}
	}
	if err := log.Close(); err != nil {
		return genResult{}, fmt.Errorf("journal: %w", err)
	}
	return genResult{Events: len(events), Hash: hash}, nil
}
