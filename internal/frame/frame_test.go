package frame

import (
	"bytes"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("first"), {}, []byte("a longer third payload")}
	for i, p := range payloads {
		buf = Append(buf, uint64(i), p)
	}
	off := 0
	for i, p := range payloads {
		seq, data, n, ok := Decode(buf[off:])
		if !ok {
			t.Fatalf("frame %d: decode failed", i)
		}
		if seq != uint64(i) || !bytes.Equal(data, p) {
			t.Fatalf("frame %d: got seq=%d data=%q, want seq=%d data=%q", i, seq, data, i, p)
		}
		sz, sok := Size(buf[off:])
		if !sok || sz != n {
			t.Fatalf("frame %d: Size=%d,%v want %d,true", i, sz, sok, n)
		}
		// A stream reader holds only the header when it asks.
		if sz, sok := Size(buf[off : off+Overhead]); !sok || sz != n {
			t.Fatalf("frame %d: Size(header)=%d,%v want %d,true", i, sz, sok, n)
		}
		if _, sok := Size(buf[off : off+Overhead-1]); sok {
			t.Fatalf("frame %d: Size accepted a short header", i)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestTornTail(t *testing.T) {
	full := Append(nil, 7, []byte("payload"))
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, ok := Decode(full[:cut]); ok {
			t.Fatalf("decode succeeded on %d/%d bytes", cut, len(full))
		}
	}
}

func TestCorruptPayload(t *testing.T) {
	full := Append(nil, 7, []byte("payload"))
	full[len(full)-1] ^= 0xff
	if _, _, _, ok := Decode(full); ok {
		t.Fatal("decode accepted a corrupt payload")
	}
}

func TestDecodeCopies(t *testing.T) {
	buf := Append(nil, 1, []byte("abc"))
	_, data, _, ok := Decode(buf)
	if !ok {
		t.Fatal("decode failed")
	}
	buf[Overhead] = 'x'
	if string(data) != "abc" {
		t.Fatal("decoded data aliases the input buffer")
	}
}
