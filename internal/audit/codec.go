package audit

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Persisted event layout (all integers big-endian):
//
//	u16 version | u64 seq | i64 unixNano | str actor | str action |
//	str record | u64 recVersion | str outcome | str detail | str trace |
//	32B prevHash | 32B hash | str mac
//
// where str is u32 length || bytes. Version 2 added the trace field; the
// codec is strict (only the current version decodes) because the event hash
// domain is versioned in lockstep — a v1 chain would fail verification under
// v2 hashing anyway, so decoding it would only defer the error.
const codecVersion = 2

func encodeEvent(e Event) []byte {
	n := 2 + 3*8 + 2*32 + 7*4 + len(e.Actor) + len(e.Action) + len(e.Record) +
		len(e.Outcome) + len(e.Detail) + len(e.Trace) + len(e.MAC)
	b := make([]byte, 0, n)
	b = binary.BigEndian.AppendUint16(b, codecVersion)
	b = binary.BigEndian.AppendUint64(b, e.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(e.Timestamp.UnixNano()))
	b = appendStr(b, e.Actor)
	b = appendStr(b, string(e.Action))
	b = appendStr(b, e.Record)
	b = binary.BigEndian.AppendUint64(b, e.Version)
	b = appendStr(b, string(e.Outcome))
	b = appendStr(b, e.Detail)
	b = appendStr(b, e.Trace)
	b = append(b, e.PrevHash[:]...)
	b = append(b, e.Hash[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(e.MAC)))
	return append(b, e.MAC...)
}

// appendStr appends a u32-length-prefixed string, the layout shared by the
// codec and the event hash.
func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// decodeEvent parses one persisted event. It reads the payload front to
// back in place: the six strings are copied out in one allocation and the
// MAC in another, so the caller may reuse data afterwards.
func decodeEvent(data []byte) (Event, error) {
	d := decoder{b: data}
	if ver := d.u16(); d.err != nil || ver != codecVersion {
		return Event{}, fmt.Errorf("%w: version %d", ErrCorrupt, ver)
	}
	var e Event
	e.Seq = d.u64()
	ns := d.u64()
	strs := d.off
	actor := d.field()
	action := d.field()
	record := d.field()
	e.Version = d.u64()
	outcome := d.field()
	detail := d.field()
	trace := d.field()
	strsEnd := d.off
	copy(e.PrevHash[:], d.take(32))
	copy(e.Hash[:], d.take(32))
	mac := d.field()
	if d.err != nil {
		return Event{}, fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	if rest := len(data) - d.off; rest != 0 {
		return Event{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, rest)
	}
	e.Timestamp = time.Unix(0, int64(ns)).UTC()
	// One string holds the bytes from actor to trace, length prefixes and
	// the record version included; each field is a substring of it.
	s := string(data[strs:strsEnd])
	str := func(f span) string { return s[f.lo-strs : f.hi-strs] }
	e.Actor = str(actor)
	e.Action = Action(str(action))
	e.Record = str(record)
	e.Outcome = Outcome(str(outcome))
	e.Detail = str(detail)
	e.Trace = str(trace)
	e.MAC = append(make([]byte, 0, mac.hi-mac.lo), data[mac.lo:mac.hi]...)
	return e, nil
}

// span is the byte range data[lo:hi] of one decoded field.
type span struct{ lo, hi int }

// decoder walks a payload slice. The first failure sticks and later reads
// return zero values; its error text matches what io.ReadFull over a
// bytes.Reader reports, so a short payload fails as it always has.
type decoder struct {
	b   []byte
	off int
	err error
}

// take consumes the next n bytes, or fails if fewer remain.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if rem := len(d.b) - d.off; rem < n {
		d.err = io.ErrUnexpectedEOF
		if rem == 0 {
			d.err = io.EOF
		}
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *decoder) u16() uint16 {
	if p := d.take(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// field consumes a u32-length-prefixed field and returns where its bytes
// lie.
func (d *decoder) field() span {
	p := d.take(4)
	if p == nil {
		return span{}
	}
	n := binary.BigEndian.Uint32(p)
	if rem := len(d.b) - d.off; int(n) > rem {
		d.err = fmt.Errorf("field length %d exceeds remaining %d", n, rem)
		return span{}
	}
	f := span{d.off, d.off + int(n)}
	d.off = f.hi
	return f
}
