package cliflags

import (
	"compress/flate"
	"flag"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"decoydb/internal/evcodec"
	"decoydb/internal/wal"
)

// Store carries the -store flag value after flag parsing. One flag
// configures every durable log a binary keeps: the directory is the
// root, and each log lives in a named subdirectory (dbcollect journals
// under <dir>/collector; decoydb keeps its capture journal under
// <dir>/journal and its relay spool under <dir>/spool), so one -store
// value moves the whole durable state of a process. compress= sets the
// level of the store journals only: the relay spool journals each frame
// exactly as the forwarder compressed it for the wire.
type Store struct {
	Spec *string
}

// RegisterStore registers the -store flag on fs.
func RegisterStore(fs *flag.FlagSet) *Store {
	return &Store{
		Spec: fs.String("store", "",
			"durable event storage: DIR[,fsync=interval|batch|off][,interval=DUR][,segbytes=N][,compress=none|speed|best] — captures survive restarts"),
	}
}

// Enabled reports whether the flag was set.
func (s *Store) Enabled() bool { return *s.Spec != "" }

// Dir returns the configured root directory ("" when disabled).
func (s *Store) Dir() string {
	dir, _, _ := strings.Cut(*s.Spec, ",")
	return dir
}

// Options resolves the parsed flag into wal.Options rooted at the named
// subdirectory of the flag's directory.
func (s *Store) Options(subdir string, logf func(string, ...any)) (wal.Options, error) {
	dir, rest, _ := strings.Cut(*s.Spec, ",")
	if dir == "" {
		return wal.Options{}, fmt.Errorf("-store: empty directory in %q", *s.Spec)
	}
	opts := wal.Options{Dir: filepath.Join(dir, subdir), Logf: logf}
	for _, kv := range strings.Split(rest, ",") {
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return wal.Options{}, fmt.Errorf("-store: want key=value, got %q", kv)
		}
		switch key {
		case "fsync":
			pol, err := wal.ParseSyncPolicy(val)
			if err != nil {
				return wal.Options{}, fmt.Errorf("-store: %w", err)
			}
			opts.Sync = pol
		case "interval":
			d, err := time.ParseDuration(val)
			if err != nil {
				return wal.Options{}, fmt.Errorf("-store: interval: %w", err)
			}
			opts.SyncEvery = d
		case "segbytes":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 {
				return wal.Options{}, fmt.Errorf("-store: segbytes: want a positive integer, got %q", val)
			}
			opts.SegmentBytes = n
		case "compress":
			switch val {
			case "none", "":
				opts.CompressionLevel = evcodec.LevelStored
			case "speed":
				opts.CompressionLevel = flate.BestSpeed
			case "best":
				opts.CompressionLevel = flate.BestCompression
			default:
				return wal.Options{}, fmt.Errorf("-store: compress: want none, speed or best, got %q", val)
			}
		default:
			return wal.Options{}, fmt.Errorf("-store: unknown option %q (want fsync, interval, segbytes or compress)", key)
		}
	}
	return opts, nil
}

// Open opens (creating or recovering) the log under the named
// subdirectory. It returns (nil, nil) when the flag was not set.
func (s *Store) Open(subdir string, logf func(string, ...any)) (*wal.Log, error) {
	if !s.Enabled() {
		return nil, nil
	}
	opts, err := s.Options(subdir, logf)
	if err != nil {
		return nil, err
	}
	l, err := wal.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("-store: %w", err)
	}
	return l, nil
}
