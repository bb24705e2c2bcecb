package evcodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/wire"
)

// testEvent builds an event with every field populated, alternating
// IPv4 and IPv6 sources, so the codec tests cover the whole schema.
func testEvent(i int) core.Event {
	src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)}), uint16(1024+i))
	if i%2 == 1 {
		src = netip.AddrPortFrom(netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", i)), uint16(2048+i))
	}
	return core.Event{
		Time: time.Unix(1700000000+int64(i), int64(i)*7919).UTC(),
		Src:  src,
		Honeypot: core.Info{
			DBMS: core.Redis, Level: core.High, Port: 6379,
			Instance: i % 5, Config: core.ConfigDefault, Group: core.GroupMulti,
			VM: "vm-7", Region: "us",
		},
		Kind:    core.EventCommand,
		User:    fmt.Sprintf("u%d", i),
		Pass:    fmt.Sprintf("p%d", i%3),
		OK:      i%2 == 0,
		Command: "CONFIG SET dir /tmp",
		Raw:     "*3\r\n$6\r\nCONFIG\r\n",
	}
}

func testEvents(n int) []core.Event {
	evs := make([]core.Event, n)
	for i := range evs {
		evs[i] = testEvent(i)
	}
	return evs
}

// encode frames events as one batch body at level.
func encode(t testing.TB, seq uint64, events []core.Event, level int) []byte {
	t.Helper()
	w := wire.NewWriter(256)
	if _, err := AppendBatch(w, seq, events, level); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// decode is ReadBatch over a whole body.
func decode(body []byte, lim Limits) (uint64, []core.Event, int, error) {
	return ReadBatch(wire.NewReader(body), lim)
}

// rawEvents is the uncompressed event encoding the batch body carries.
func rawEvents(events []core.Event) []byte {
	var raw []byte
	for _, e := range events {
		raw = appendEvent(raw, e)
	}
	return raw
}

// forge frames raw as a batch body that declares count events and
// declaredRaw uncompressed bytes, with a correct CRC, so each test
// reaches the check it targets rather than the CRC.
func forge(t *testing.T, count, declaredRaw int, raw []byte) []byte {
	t.Helper()
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(raw)
	fw.Close()
	body := binary.LittleEndian.AppendUint64(nil, 9)
	body = binary.LittleEndian.AppendUint32(body, uint32(count))
	body = binary.LittleEndian.AppendUint32(body, uint32(declaredRaw))
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(comp.Bytes()))
	return append(body, comp.Bytes()...)
}

func TestRoundTripLevels(t *testing.T) {
	levels := []int{LevelStored, flate.BestSpeed, flate.DefaultCompression, 0}
	// Interleave the levels over batches of different sizes: a pooled
	// writer left in the wrong state by another level would corrupt the
	// next payload.
	for round := 0; round < 3; round++ {
		for i, level := range levels {
			in := testEvents(1 + round*40 + i*7)
			seq := uint64(round*10 + i + 1)
			body := encode(t, seq, in, level)
			gotSeq, out, rawLen, err := decode(body, Limits{})
			if err != nil {
				t.Fatalf("level %d: %v", level, err)
			}
			if gotSeq != seq {
				t.Errorf("level %d: seq = %d, want %d", level, gotSeq, seq)
			}
			if rawLen != len(rawEvents(in)) {
				t.Errorf("level %d: rawLen = %d, want %d", level, rawLen, len(rawEvents(in)))
			}
			if !reflect.DeepEqual(out, in) {
				t.Fatalf("level %d: events differ after round trip", level)
			}
		}
	}
}

func TestStoredLevelIsUncompressed(t *testing.T) {
	in := testEvents(50)
	stored, err := Compress(in, LevelStored)
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Release()
	fast, err := Compress(in, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Release()
	if len(stored.Comp) < stored.RawLen {
		t.Errorf("stored payload is %d bytes for %d raw", len(stored.Comp), stored.RawLen)
	}
	if len(fast.Comp) >= len(stored.Comp) {
		t.Errorf("BestSpeed payload (%d bytes) not smaller than stored (%d)", len(fast.Comp), len(stored.Comp))
	}
}

func TestCompressRejectsBadLevel(t *testing.T) {
	for _, level := range []int{-4, 10} {
		if _, err := Compress(testEvents(1), level); err == nil {
			t.Errorf("level %d accepted", level)
		}
	}
}

// TestAlternatingLevelsReuseWriters pins the per-level writer pools.
// With one pool for every level, alternating levels (the relay at
// BestSpeed, a journal at stored blocks) threw away the pooled writer
// on each mismatch and built a new one: ~1MB and dozens of allocations
// per batch.
func TestAlternatingLevelsReuseWriters(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	in := testEvents(64)
	levels := []int{LevelStored, flate.BestSpeed, flate.DefaultCompression}
	round := func() {
		for _, level := range levels {
			p, err := Compress(in, level)
			if err != nil {
				t.Fatal(err)
			}
			p.Release()
		}
	}
	round() // fill the pools
	if allocs := testing.AllocsPerRun(100, round); allocs > 1 {
		t.Errorf("%.1f allocations per round of %d levels; want at most 1", allocs, len(levels))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	// A GC clearing the pools mid-loop may rebuild each writer once; a
	// writer rebuilt per call would cost ~50MB here.
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > 64<<10 {
		t.Errorf("%d bytes allocated per round; want under 64KB", per)
	}
}

// TestReadBatchReusesInflater pins the pooled decompressor and inflate
// buffer: what a decode allocates is its result — the events and their
// strings, ~11KB for this batch — not a fresh ~40KB decompressor and a
// payload buffer per call.
func TestReadBatchReusesInflater(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	body := encode(t, 1, testEvents(32), flate.BestSpeed)
	once := func() {
		if _, _, _, err := decode(body, Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	once()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		once()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > 24<<10 {
		t.Errorf("%d bytes allocated per 32-event decode; want under 24KB", per)
	}
}

func TestReadBatchRejects(t *testing.T) {
	in := testEvents(4)
	raw := rawEvents(in)
	valid := encode(t, 3, in, flate.BestSpeed)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x01
	cases := []struct {
		name string
		body []byte
		lim  Limits
		want error
	}{
		{"bad CRC", badCRC, Limits{}, ErrChecksum},
		{"truncated head", valid[:10], Limits{}, ErrCorrupt},
		{"zero events", forge(t, 0, len(raw), raw), Limits{}, ErrCorrupt},
		{"declared raw too small", forge(t, 4, len(raw)-1, raw), Limits{}, ErrCorrupt},
		{"declared raw too large", forge(t, 4, len(raw)+1, raw), Limits{}, ErrCorrupt},
		{"count too high", forge(t, 5, len(raw), raw), Limits{}, ErrCorrupt},
		{"count too low", forge(t, 3, len(raw), raw), Limits{}, ErrCorrupt},
		{"trailing bytes", forge(t, 4, len(raw)+2, append(append([]byte(nil), raw...), 0, 0)), Limits{}, ErrCorrupt},
		{"not flate", func() []byte {
			b := forge(t, 4, len(raw), raw)[:20]
			junk := []byte{0xff, 0xff, 0xff, 0xff}
			binary.LittleEndian.PutUint32(b[16:], crc32.ChecksumIEEE(junk))
			return append(b, junk...)
		}(), Limits{}, ErrCorrupt},
		{"MaxEvents", valid, Limits{MaxEvents: 3}, ErrCorrupt},
		{"MaxRaw", valid, Limits{MaxRaw: len(raw) - 1}, wire.ErrFrameTooLarge},
		{"default MaxRaw", forge(t, 1, DefaultMaxRaw+1, raw), Limits{}, wire.ErrFrameTooLarge},
		{"default MaxEvents", forge(t, DefaultMaxEvents+1, len(raw), raw), Limits{}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, events, _, err := decode(tc.body, tc.lim)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if events != nil {
				t.Errorf("rejected batch returned %d events", len(events))
			}
		})
	}
	// The limits are inclusive: a batch exactly at both bounds decodes.
	if _, _, _, err := decode(valid, Limits{MaxEvents: 4, MaxRaw: len(raw)}); err != nil {
		t.Errorf("batch at its limits rejected: %v", err)
	}
}

// TestReadBatchBoundsInflation feeds a payload that inflates far past
// its declaration: the decoder must stop one byte past the declared size
// instead of inflating the whole bomb.
func TestReadBatchBoundsInflation(t *testing.T) {
	bomb := forge(t, 1, 16, make([]byte, 8<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := decode(bomb, Limits{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("decoding an 8MB bomb declared at 16 bytes allocated %d bytes", got)
	}
}

// FuzzReadBatch throws arbitrary batch bodies at ReadBatch. Relay
// frames arrive from a routable port and WAL segments from a disk that
// may be corrupt, so for every input the decoder must either fail with
// an error or return events that survive an exact round trip.
func FuzzReadBatch(f *testing.F) {
	for i, level := range []int{LevelStored, flate.BestSpeed, flate.DefaultCompression} {
		f.Add(encode(f, uint64(i+1), testEvents(1+i*3), level))
	}
	valid := encode(f, 7, testEvents(2), flate.BestSpeed)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:20])
	f.Add([]byte{})
	// Tight limits: a hostile declared size must be bounded by these,
	// not by available memory.
	lim := Limits{MaxRaw: 1 << 16, MaxEvents: 256}
	f.Fuzz(func(t *testing.T, body []byte) {
		seq, events, rawLen, err := decode(body, lim)
		if err != nil {
			if events != nil {
				t.Fatalf("error %v returned %d events", err, len(events))
			}
			return
		}
		if len(events) == 0 || len(events) > lim.MaxEvents || rawLen > lim.MaxRaw {
			t.Fatalf("accepted %d events, %d raw bytes past limits %+v", len(events), rawLen, lim)
		}
		again := wire.NewWriter(len(body))
		reRaw, err := AppendBatch(again, seq, events, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if reRaw != rawLen {
			t.Fatalf("re-encoding gives %d raw bytes, decoded %d", reRaw, rawLen)
		}
		seq2, events2, _, err := decode(again.Bytes(), lim)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if seq2 != seq || !reflect.DeepEqual(events2, events) {
			t.Fatalf("round trip differs")
		}
	})
}
