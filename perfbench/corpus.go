package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"decoydb/internal/core"
)

// The corpus file is the benchmark's own format, read and written only
// by this file, so that a faster evcodec or relay cannot make the
// corpus load faster or slower. Layout:
//
//	magic "DBCORP1\n"
//	uvarint nInfos, then per honeypot: 7 strings and 3 uvarints
//	uvarint nEvents, then per event:
//	  varint unix-nanos, 16-byte addr, uvarint port, uvarint info index,
//	  byte kind, byte ok, 4 strings (user, pass, command, raw)
//
// Strings are uvarint length + bytes. Honeypot infos are interned, so a
// loaded corpus shares one Info per instance.
const corpusMagic = "DBCORP1\n"

// minEventBytes is the smallest encoded event: time, address, port,
// info index, kind, ok and four empty strings.
const minEventBytes = 1 + 16 + 1 + 1 + 2 + 4

func writeCorpus(path string, events []core.Event) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	w := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) { w.Write(buf[:binary.PutUvarint(buf[:], v)]) }
	putS := func(s string) { putU(uint64(len(s))); w.WriteString(s) }

	infos := map[core.Info]uint64{}
	var order []core.Info
	for _, e := range events {
		if _, ok := infos[e.Honeypot]; !ok {
			infos[e.Honeypot] = uint64(len(order))
			order = append(order, e.Honeypot)
		}
	}
	w.WriteString(corpusMagic)
	putU(uint64(len(order)))
	for _, in := range order {
		for _, s := range []string{in.DBMS, in.Config, in.Group, in.VM, in.Region} {
			putS(s)
		}
		putU(uint64(in.Level))
		putU(uint64(in.Port))
		putU(uint64(in.Instance))
	}
	putU(uint64(len(events)))
	for _, e := range events {
		w.Write(buf[:binary.PutVarint(buf[:], e.Time.UnixNano())])
		a := e.Src.Addr().As16()
		w.Write(a[:])
		putU(uint64(e.Src.Port()))
		putU(infos[e.Honeypot])
		ok := byte(0)
		if e.OK {
			ok = 1
		}
		w.Write([]byte{byte(e.Kind), ok})
		putS(e.User)
		putS(e.Pass)
		putS(e.Command)
		putS(e.Raw)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// readCorpus loads a corpus and returns it with the SHA-256 of the file.
func readCorpus(path string) ([]core.Event, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(data)
	r := &corpusReader{b: data}
	if string(r.bytes(len(corpusMagic))) != corpusMagic {
		return nil, "", fmt.Errorf("corpus %s: bad magic", path)
	}
	infos := make([]core.Info, r.uvarint())
	for i := range infos {
		in := &infos[i]
		in.DBMS, in.Config, in.Group, in.VM, in.Region = r.str(), r.str(), r.str(), r.str(), r.str()
		in.Level = core.Level(r.uvarint())
		in.Port = int(r.uvarint())
		in.Instance = int(r.uvarint())
	}
	n := r.uvarint()
	if r.err == nil && n > uint64(len(data)/minEventBytes) {
		r.err = errors.New("event count exceeds what the file can hold")
	}
	var events []core.Event
	if r.err == nil {
		events = make([]core.Event, n)
	}
	for i := range events {
		e := &events[i]
		e.Time = time.Unix(0, r.varint()).UTC()
		addr := netip.AddrFrom16([16]byte(r.bytes(16))).Unmap()
		e.Src = netip.AddrPortFrom(addr, uint16(r.uvarint()))
		idx := r.uvarint()
		if idx >= uint64(len(infos)) {
			r.fail(fmt.Errorf("info index %d out of range", idx))
			break
		}
		e.Honeypot = infos[idx]
		kb := r.bytes(2)
		e.Kind, e.OK = core.EventKind(kb[0]), kb[1] == 1
		e.User, e.Pass, e.Command, e.Raw = r.str(), r.str(), r.str(), r.str()
		if r.err != nil {
			break
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, "", fmt.Errorf("corpus %s: %w", path, r.err)
	}
	return events, hex.EncodeToString(sum[:]), nil
}

type corpusReader struct {
	b      []byte
	err    error
	intern map[string]string
}

func (r *corpusReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *corpusReader) bytes(n int) []byte {
	if n > len(r.b) {
		r.fail(io.ErrUnexpectedEOF)
		return make([]byte, n)
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *corpusReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *corpusReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(io.ErrUnexpectedEOF)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *corpusReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail(io.ErrUnexpectedEOF)
		return ""
	}
	b := r.bytes(int(n))
	if s, ok := r.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if r.intern == nil {
		r.intern = map[string]string{}
	}
	r.intern[s] = s
	return s
}
