// Package evcodec is the one binary encoding of an event batch, shared
// by the relay wire protocol (internal/relay) and the on-disk WAL
// segment format (internal/wal). Both wrap the same body — a sequence
// number, an event count, the uncompressed size, a CRC-32 over the
// compressed payload, and the flate-compressed event encoding — behind
// their own headers, so the farm→collector frames and the durable
// segments literally cannot drift apart.
//
// Like everything downstream of a honeypot, the decoder treats its
// input as hostile: every declared size is validated against Limits
// before allocation, the CRC is verified before decompression, and the
// decompressor is capped at the declared size so a zip bomb cannot
// inflate past its declaration.
package evcodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/netip"
	"sync"
	"time"

	"decoydb/internal/core"
	"decoydb/internal/wire"
)

// Hard limits. They bound what a single batch can make a decoder
// allocate, whether the batch arrived over a routable port or from a
// segment file on disk (which may have been corrupted arbitrarily).
const (
	// DefaultMaxRaw caps the decompressed payload of one batch.
	DefaultMaxRaw = 32 << 20
	// DefaultMaxEvents caps the events declared by one batch.
	DefaultMaxEvents = 65536
	// MaxString caps any single string field inside an encoded event.
	MaxString = 1 << 20
	// MaxOwnerAddr caps the endpoint address inside an ownership record.
	// Collector addresses are host:port strings; anything longer than
	// this is corruption, not configuration.
	MaxOwnerAddr = 256
)

// LevelStored selects flate stored (uncompressed) blocks: the payload
// is still a valid flate stream any decoder accepts, but encoding is a
// plain copy. The WAL's Append defaults to it — segment appends sit on
// the ingest hot path and local disk is cheaper than the CPU to shrink
// it — while the relay keeps real compression for the wire (and its
// spool journals those wire payloads as they are).
const LevelStored = -3

// Codec errors.
var (
	// ErrCorrupt is returned for any structurally invalid batch body.
	ErrCorrupt = errors.New("evcodec: malformed batch")
	// ErrChecksum is returned when the payload CRC does not match.
	ErrChecksum = errors.New("evcodec: payload checksum mismatch")
)

// Limits bound what ReadBatch will allocate for one batch. The zero
// value means the package defaults.
type Limits struct {
	MaxRaw    int // decompressed payload bytes (0 = DefaultMaxRaw)
	MaxEvents int // events per batch (0 = DefaultMaxEvents)
}

// WithDefaults fills zero fields with the package defaults.
func (l Limits) WithDefaults() Limits {
	if l.MaxRaw <= 0 {
		l.MaxRaw = DefaultMaxRaw
	}
	if l.MaxEvents <= 0 {
		l.MaxEvents = DefaultMaxEvents
	}
	return l
}

// Payload is a compressed event payload, ready to be framed into a
// batch body. It carries no sequence number, so it can be built outside
// whatever lock assigns sequences — the WAL compresses concurrently and
// only serialises the (cheap) framed write. Callers that consume Comp
// before returning should call Release to recycle the buffer.
type Payload struct {
	Comp   []byte // flate-compressed event encoding
	RawLen int    // uncompressed size
	Count  int    // events encoded
	CRC    uint32 // CRC-32 (IEEE) over Comp

	buf *bytes.Buffer // pooled backing store for Comp, nil if unpooled
}

// maxPooledBuf caps the capacity of a buffer returned to any of the
// package's pools: one outsized batch must not pin its buffer for the
// life of the process.
const maxPooledBuf = 1 << 20

// compBufs recycles compression output buffers between batches.
var compBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putCompBuf returns a compression output buffer to compBufs.
func putCompBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		b.Reset()
		compBufs.Put(b)
	}
}

// Release recycles the payload's backing buffer. The caller must be
// done with Comp; forgetting to call it only costs a GC'd allocation.
func (p *Payload) Release() {
	if p.buf != nil {
		putCompBuf(p.buf)
		p.buf, p.Comp = nil, nil
	}
}

// AppendHead appends the batch-body framing that precedes the
// compressed payload — sequence number, event count, uncompressed size,
// payload CRC — and returns the extended buffer. AppendHead followed by
// the Comp bytes is exactly what AppendPayload emits.
func (p Payload) AppendHead(buf []byte, seq uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Count))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.RawLen))
	return binary.LittleEndian.AppendUint32(buf, p.CRC)
}

// HeadSize is the length of the framing AppendHead writes.
const HeadSize = 20

// flateWriters recycles flate compressors, one pool per compress/flate
// level (flate.HuffmanOnly..flate.BestCompression, indexed from
// HuffmanOnly). flate.NewWriter allocates ~1MB of window and hash-table
// state; with one pool for all levels, callers alternating levels (the
// collector journal at stored blocks, the relay at BestSpeed) kept
// evicting each other's writers and rebuilt one per batch.
var flateWriters [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// rawBufs recycles the pre-compression encode buffer; it never escapes
// Compress, so pooling it removes a ~32KB alloc+clear per batch.
var rawBufs = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

// Compress encodes and compresses events into a Payload. level is a
// compress/flate level; 0 selects flate.BestSpeed — both callers sit on
// hot paths and trade ratio for throughput by default — and LevelStored
// selects stored blocks.
func Compress(events []core.Event, level int) (Payload, error) {
	switch level {
	case 0:
		level = flate.BestSpeed
	case LevelStored:
		level = flate.NoCompression
	}
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return Payload{}, fmt.Errorf("evcodec: invalid flate level %d", level)
	}
	// Encode into a local slice: appending through a pointer field would
	// pay a GC write barrier on every field write, which profiles as half
	// the cost of encoding a batch.
	rawp := rawBufs.Get().(*[]byte)
	raw := (*rawp)[:0]
	for _, e := range events {
		raw = appendEvent(raw, e)
	}
	defer func() {
		if cap(raw) <= maxPooledBuf {
			*rawp = raw[:0]
			rawBufs.Put(rawp)
		}
	}()
	comp := compBufs.Get().(*bytes.Buffer)
	fail := func(err error) (Payload, error) {
		putCompBuf(comp)
		return Payload{}, err
	}
	pool := &flateWriters[level-flate.HuffmanOnly]
	fw, _ := pool.Get().(*flate.Writer)
	if fw != nil {
		fw.Reset(comp)
	} else {
		var err error
		if fw, err = flate.NewWriter(comp, level); err != nil {
			return fail(fmt.Errorf("evcodec: flate level %d: %w", level, err))
		}
	}
	if _, err := fw.Write(raw); err != nil {
		return fail(fmt.Errorf("evcodec: compress batch: %w", err))
	}
	if err := fw.Close(); err != nil {
		return fail(fmt.Errorf("evcodec: compress batch: %w", err))
	}
	pool.Put(fw)
	return Payload{
		Comp:   comp.Bytes(),
		RawLen: len(raw),
		Count:  len(events),
		CRC:    crc32.ChecksumIEEE(comp.Bytes()),
		buf:    comp,
	}, nil
}

// AppendPayload frames a compressed payload as one batch body onto w:
// sequence number, event count, uncompressed size, payload CRC, then
// the compressed payload itself.
func AppendPayload(w *wire.Writer, seq uint64, p Payload) {
	var head [HeadSize]byte
	w.Raw(p.AppendHead(head[:0], seq))
	w.Raw(p.Comp)
}

// AppendBatch encodes events as one batch body onto w — Compress and
// AppendPayload in one step, for callers that already hold seq. It
// returns the uncompressed payload size (the numerator of the
// compression ratio).
func AppendBatch(w *wire.Writer, seq uint64, events []core.Event, level int) (rawLen int, err error) {
	p, err := Compress(events, level)
	if err != nil {
		return 0, err
	}
	AppendPayload(w, seq, p)
	p.Release()
	return p.RawLen, nil
}

// inflater is a pooled decompressor together with the reader it
// consumes, so ReadBatch allocates neither per batch.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // a flate.Resetter
}

// inflaters recycles decompressors: flate.NewReader allocates ~40KB of
// window and Huffman tables per call.
var inflaters = sync.Pool{New: func() any {
	z := new(inflater)
	z.fr = flate.NewReader(&z.src)
	return z
}}

// inflateBufs recycles ReadBatch's decompressed-payload buffer. Events
// decode out of it by copy, so it never escapes ReadBatch.
var inflateBufs = sync.Pool{New: func() any { return new([]byte) }}

// inflate decompresses comp into buf, reading at most limit bytes, and
// returns the filled prefix. It is io.Copy through an io.LimitReader
// into a buffer already sized for limit: the read stops at the
// decompressor's EOF or at limit, and any other error is returned.
func inflate(comp, buf []byte, limit int) ([]byte, error) {
	z := inflaters.Get().(*inflater)
	defer func() {
		z.src.Reset(nil) // a pooled inflater must not pin the last batch
		inflaters.Put(z)
	}()
	z.src.Reset(comp)
	if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, err
	}
	lr := io.LimitedReader{R: z.fr, N: int64(limit)}
	buf = buf[:limit]
	n := 0
	for {
		m, err := lr.Read(buf[n:])
		n += m
		if err == io.EOF {
			return buf[:n], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// ReadBatch is the symmetric inverse of AppendBatch: it consumes one
// batch body from r (through to the end of the buffer — the compressed
// payload is whatever remains). Every declared size is validated
// against lim before allocation, the CRC is verified before
// decompression, and the decompressed payload must parse into exactly
// the declared event count with no bytes left over.
func ReadBatch(r *wire.Reader, lim Limits) (seq uint64, events []core.Event, rawLen int, err error) {
	lim = lim.WithDefaults()
	if seq, err = r.Uint64LE(); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	count, err := r.Uint32LE()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if count == 0 || int64(count) > int64(lim.MaxEvents) {
		return 0, nil, 0, fmt.Errorf("%w: %d events declared (limit %d)", ErrCorrupt, count, lim.MaxEvents)
	}
	declaredRaw, err := r.Uint32LE()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if int64(declaredRaw) > int64(lim.MaxRaw) {
		return 0, nil, 0, fmt.Errorf("%w: %d-byte payload declared (limit %d)", wire.ErrFrameTooLarge, declaredRaw, lim.MaxRaw)
	}
	sum, err := r.Uint32LE()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	comp := r.Rest()
	if crc32.ChecksumIEEE(comp) != sum {
		return 0, nil, 0, ErrChecksum
	}
	// The decompressor is capped at declaredRaw+1: a payload that
	// inflates past its declaration is rejected without allocating more
	// than one extra byte past the bound.
	bufp := inflateBufs.Get().(*[]byte)
	if cap(*bufp) < int(declaredRaw)+1 {
		*bufp = make([]byte, 0, int(declaredRaw)+1)
	}
	defer func() {
		if cap(*bufp) <= maxPooledBuf {
			inflateBufs.Put(bufp)
		}
	}()
	raw, err := inflate(comp, *bufp, int(declaredRaw)+1)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
	}
	if len(raw) != int(declaredRaw) {
		return 0, nil, 0, fmt.Errorf("%w: payload inflates to %d bytes, declared %d", ErrCorrupt, len(raw), declaredRaw)
	}
	er := wire.NewReader(raw)
	events = make([]core.Event, 0, count)
	for i := uint32(0); i < count; i++ {
		e, err := decodeEvent(er)
		if err != nil {
			return 0, nil, 0, fmt.Errorf("%w: event %d: %v", ErrCorrupt, i, err)
		}
		events = append(events, e)
	}
	if er.Len() != 0 {
		return 0, nil, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, er.Len())
	}
	return seq, events, int(declaredRaw), nil
}

// AppendOwner appends the body of a frame-ownership record — the spool
// sequence number and the collector address the frame is pinned to
// (empty = pin released) — shared by the relay's durable spool and the
// WAL's owner records so the two cannot drift. The address is bounded by
// MaxOwnerAddr; longer addresses are an error, never truncated (a
// truncated address would silently pin the frame to a different
// collector).
func AppendOwner(buf []byte, seq uint64, addr string) ([]byte, error) {
	if len(addr) > MaxOwnerAddr {
		return nil, fmt.Errorf("evcodec: %d-byte owner address (limit %d)", len(addr), MaxOwnerAddr)
	}
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(addr)))
	return append(buf, addr...), nil
}

// ReadOwner is the symmetric inverse of AppendOwner: it consumes one
// ownership body from r, bounding the declared address length before
// allocation. The body must end exactly at the address — trailing bytes
// are corruption.
func ReadOwner(r *wire.Reader) (seq uint64, addr string, err error) {
	if seq, err = r.Uint64LE(); err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	n, err := r.Uint16LE()
	if err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if int(n) > MaxOwnerAddr {
		return 0, "", fmt.Errorf("%w: %d-byte owner address (limit %d)", ErrCorrupt, n, MaxOwnerAddr)
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if r.Len() != 0 {
		return 0, "", fmt.Errorf("%w: %d trailing owner bytes", ErrCorrupt, r.Len())
	}
	return seq, string(b), nil
}

// appendEvent appends one event to buf in the fixed field order
// decodeEvent expects. String fields longer than MaxString are
// truncated — events are bounded upstream (core honeypots excerpt Raw),
// so truncation here is a belt-and-braces cap, not a normal path.
func appendEvent(buf []byte, e core.Event) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Time.UnixNano()))
	a16 := e.Src.Addr().As16()
	buf = append(buf, a16[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, e.Src.Port())
	buf = appendString(buf, e.Honeypot.DBMS)
	buf = append(buf, byte(e.Honeypot.Level))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Honeypot.Port))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Honeypot.Instance))
	buf = appendString(buf, e.Honeypot.Config)
	buf = appendString(buf, e.Honeypot.Group)
	buf = appendString(buf, e.Honeypot.VM)
	buf = appendString(buf, e.Honeypot.Region)
	buf = append(buf, byte(e.Kind))
	buf = appendString(buf, e.User)
	buf = appendString(buf, e.Pass)
	if e.OK {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendString(buf, e.Command)
	return appendString(buf, e.Raw)
}

// decodeEvent parses one event; every string read is bounded.
func decodeEvent(r *wire.Reader) (core.Event, error) {
	var e core.Event
	nanos, err := r.Uint64LE()
	if err != nil {
		return e, err
	}
	e.Time = time.Unix(0, int64(nanos)).UTC()
	ab, err := r.Bytes(16)
	if err != nil {
		return e, err
	}
	var a16 [16]byte
	copy(a16[:], ab)
	port, err := r.Uint16LE()
	if err != nil {
		return e, err
	}
	e.Src = netip.AddrPortFrom(netip.AddrFrom16(a16).Unmap(), port)
	if e.Honeypot.DBMS, err = getString(r); err != nil {
		return e, err
	}
	lvl, err := r.Uint8()
	if err != nil {
		return e, err
	}
	e.Honeypot.Level = core.Level(lvl)
	hpPort, err := r.Uint32LE()
	if err != nil {
		return e, err
	}
	e.Honeypot.Port = int(hpPort)
	inst, err := r.Uint32LE()
	if err != nil {
		return e, err
	}
	e.Honeypot.Instance = int(inst)
	if e.Honeypot.Config, err = getString(r); err != nil {
		return e, err
	}
	if e.Honeypot.Group, err = getString(r); err != nil {
		return e, err
	}
	if e.Honeypot.VM, err = getString(r); err != nil {
		return e, err
	}
	if e.Honeypot.Region, err = getString(r); err != nil {
		return e, err
	}
	kind, err := r.Uint8()
	if err != nil {
		return e, err
	}
	e.Kind = core.EventKind(kind)
	if e.User, err = getString(r); err != nil {
		return e, err
	}
	if e.Pass, err = getString(r); err != nil {
		return e, err
	}
	ok, err := r.Uint8()
	if err != nil {
		return e, err
	}
	e.OK = ok != 0
	if e.Command, err = getString(r); err != nil {
		return e, err
	}
	if e.Raw, err = getString(r); err != nil {
		return e, err
	}
	return e, nil
}

// appendString appends a uint32-length-prefixed string, truncated to
// MaxString.
func appendString(buf []byte, s string) []byte {
	if len(s) > MaxString {
		s = s[:MaxString]
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// getString reads a uint32-length-prefixed string, bounded by MaxString.
func getString(r *wire.Reader) (string, error) {
	n, err := r.Uint32LE()
	if err != nil {
		return "", err
	}
	if int64(n) > MaxString {
		return "", fmt.Errorf("%w: %d-byte string (limit %d)", wire.ErrFrameTooLarge, n, MaxString)
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
