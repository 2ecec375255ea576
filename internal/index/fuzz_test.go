package index

import (
	"errors"
	"testing"

	"medvault/internal/vcrypto"
)

// FuzzLoadSSE throws arbitrary bytes at the encrypted-index loader twice:
// as a whole snapshot, which must be rejected or load without panicking,
// and sealed under the right key as a version 2 table, so the fuzzer
// reaches the table decoder past authenticated decryption. A table that
// does not load must fail with ErrCorrupt; one that loads must survive a
// snapshot round trip.
func FuzzLoadSSE(f *testing.F) {
	master := vcrypto.DeriveKey(vcrypto.Key{}, "fuzz")
	s := NewSSE(master)
	s.Add("d1", "hypertension asthma")
	s.Add("d2", "asthma inhaler")
	v2, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	v1, err := snapshotV1(s)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(v1)
	f.Add(openTable(f, master, v2))
	f.Add([]byte{})
	f.Add([]byte("MVSX"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if idx, err := LoadSSE(master, data); err == nil {
			idx.Search("hypertension")
			idx.Len()
		}
		idx, err := LoadSSE(master, sealTable(t, master, data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("sealed table: %v, want ErrCorrupt", err)
			}
			return
		}
		idx.SearchAll("hypertension", "asthma")
		snap, err := idx.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		re, err := LoadSSE(master, snap)
		if err != nil {
			t.Fatalf("reloading a loaded table: %v", err)
		}
		if re.Len() != idx.Len() {
			t.Fatalf("Len %d after round trip, want %d", re.Len(), idx.Len())
		}
	})
}

// openTable decrypts a version 2 snapshot's table.
func openTable(tb testing.TB, master vcrypto.Key, snap []byte) []byte {
	tb.Helper()
	if len(snap) < len(sseHeader)+4 || string(snap[:len(sseHeader)]) != string(sseHeader) {
		tb.Fatalf("not a version 2 snapshot: % x", snap[:min(len(snap), 6)])
	}
	plain, err := vcrypto.Open(NewSSE(master).valueKey, snap[len(sseHeader)+4:], sseHeader)
	if err != nil {
		tb.Fatal(err)
	}
	return plain
}

// FuzzLoadPlaintext does the same for the baseline index loader.
func FuzzLoadPlaintext(f *testing.F) {
	p := NewPlaintext()
	p.Add("d1", "hypertension asthma")
	snap, err := p.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := LoadPlaintext(data)
		if err != nil {
			return
		}
		idx.Search("hypertension")
	})
}
