package audit

import (
	"bytes"
	"crypto/hmac"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"medvault/internal/vcrypto"
)

// This file keeps the original one-event-at-a-time implementation of the
// audit codec, event hash and chain walk as a test-only reference. The
// production code decodes in place, hashes from a stack buffer and checks
// hashes and MACs on a worker pool; the tests hold it to byte-identical
// digests and to exactly the errors of this reference.

// refDecodeEvent is the bytes.Reader decoder the in-place one replaced.
func refDecodeEvent(data []byte) (Event, error) {
	r := bytes.NewReader(data)
	ver, err := refReadU16(r)
	if err != nil || ver != codecVersion {
		return Event{}, fmt.Errorf("%w: version %d", ErrCorrupt, ver)
	}
	var e Event
	fields := []func() error{
		func() error { e.Seq, err = refReadU64(r); return err },
		func() error {
			ns, err := refReadU64(r)
			e.Timestamp = time.Unix(0, int64(ns)).UTC()
			return err
		},
		func() error { s, err := refReadStr(r); e.Actor = s; return err },
		func() error { s, err := refReadStr(r); e.Action = Action(s); return err },
		func() error { s, err := refReadStr(r); e.Record = s; return err },
		func() error { e.Version, err = refReadU64(r); return err },
		func() error { s, err := refReadStr(r); e.Outcome = Outcome(s); return err },
		func() error { s, err := refReadStr(r); e.Detail = s; return err },
		func() error { s, err := refReadStr(r); e.Trace = s; return err },
		func() error { _, err := io.ReadFull(r, e.PrevHash[:]); return err },
		func() error { _, err := io.ReadFull(r, e.Hash[:]); return err },
		func() error { b, err := refReadBytes(r); e.MAC = b; return err },
	}
	for _, f := range fields {
		if err := f(); err != nil {
			return Event{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if r.Len() != 0 {
		return Event{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	return e, nil
}

func refReadU16(r *bytes.Reader) (uint16, error) {
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b[:]), nil
}

func refReadU64(r *bytes.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

func refReadStr(r *bytes.Reader) (string, error) {
	b, err := refReadBytes(r)
	return string(b), err
}

func refReadBytes(r *bytes.Reader) ([]byte, error) {
	var lb [4]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lb[:])
	if int(n) > r.Len() {
		return nil, fmt.Errorf("field length %d exceeds remaining %d", n, r.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// refEventHash is the bytes.Buffer event hash the stack-buffer one replaced.
func refEventHash(e Event) [32]byte {
	var buf bytes.Buffer
	buf.WriteString("medvault/audit-event/v2\x00")
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], e.Seq)
	buf.Write(b[:])
	binary.BigEndian.PutUint64(b[:], uint64(e.Timestamp.UnixNano()))
	buf.Write(b[:])
	for _, s := range []string{e.Actor, string(e.Action), e.Record, string(e.Outcome), e.Detail, e.Trace} {
		binary.BigEndian.PutUint32(b[:4], uint32(len(s)))
		buf.Write(b[:4])
		buf.WriteString(s)
	}
	binary.BigEndian.PutUint64(b[:], e.Version)
	buf.Write(b[:])
	buf.Write(e.PrevHash[:])
	return vcrypto.Hash(buf.Bytes())
}

// refCheck makes the four checks on e as event i after prev, in the serial
// walk's order.
func refCheck(key vcrypto.Key, e Event, i int, prev [32]byte) error {
	if e.Seq != uint64(i) {
		return fmt.Errorf("%w: sequence %d, want %d", ErrChainBroken, e.Seq, i)
	}
	if e.PrevHash != prev {
		return fmt.Errorf("%w: prev-hash mismatch at seq %d", ErrChainBroken, i)
	}
	if refEventHash(e) != e.Hash {
		return fmt.Errorf("%w: content hash mismatch at seq %d", ErrChainBroken, i)
	}
	if !hmac.Equal(vcrypto.MAC(key, e.Hash[:]), e.MAC) {
		return fmt.Errorf("%w: at seq %d", ErrBadMAC, i)
	}
	return nil
}

// serialReplay is the reference Open must agree with: decode and fully
// check every persisted event in order, stopping at the first error.
func serialReplay(key vcrypto.Key, payloads [][]byte) error {
	var prev [32]byte
	for i, p := range payloads {
		e, err := refDecodeEvent(p)
		if err != nil {
			return err
		}
		if err := refCheck(key, e, i, prev); err != nil {
			return err
		}
		prev = e.Hash
	}
	return nil
}

// serialVerify is the reference Log.Verify must agree with.
func serialVerify(key vcrypto.Key, events []Event) (int, error) {
	var prev [32]byte
	for i, e := range events {
		if err := refCheck(key, e, i, prev); err != nil {
			return i, err
		}
		prev = e.Hash
	}
	return len(events), nil
}
