package provenance

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"medvault/internal/blockstore"
	"medvault/internal/checkpool"
	"medvault/internal/vcrypto"
)

// custodyLog records n custody events spread over a few records and
// returns their persisted payloads in log order.
func custodyLog(t *testing.T, signer *vcrypto.Signer, n int) [][]byte {
	t.Helper()
	store := blockstore.NewMemory(0)
	tr, err := Open(Config{Store: store, Signer: signer, System: "sys"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		typ := EventCreated
		if i >= 7 {
			typ = EventCorrected
		}
		if _, err := tr.Record(fmt.Sprintf("rec-%d", i%7), typ, "dr", vcrypto.Hash([]byte{byte(i)}), ""); err != nil {
			t.Fatal(err)
		}
	}
	var out [][]byte
	store.Scan(func(_ blockstore.Ref, data []byte) error {
		out = append(out, append([]byte(nil), data...))
		return nil
	})
	return out
}

// storeOf persists payloads into a fresh store.
func storeOf(t *testing.T, payloads [][]byte) blockstore.Store {
	t.Helper()
	st := blockstore.NewMemory(0)
	for _, p := range payloads {
		if _, err := st.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// serialReplay is the reference the pooled replay must agree with: decode
// and fully verify every event in log order, stopping at the first error.
func serialReplay(payloads [][]byte) error {
	chains := make(map[string][]Event)
	for _, p := range payloads {
		e, err := decodeEvent(p)
		if err != nil {
			return err
		}
		if err := verifyLink(chains[e.Record], e); err != nil {
			return err
		}
		chains[e.Record] = append(chains[e.Record], e)
	}
	return nil
}

// withProcs runs f at GOMAXPROCS n.
func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// TestOpenReportsEarliestTamper: signatures are checked on a worker pool,
// but a tampered log must fail exactly as a serial replay does — same error
// class, naming the earliest bad event — at any degree of parallelism, and
// wherever the tamper sits relative to the pool's batches.
func TestOpenReportsEarliestTamper(t *testing.T) {
	signer, _ := vcrypto.NewSigner()
	const n = 3*checkpool.Batch + 5
	clean := custodyLog(t, signer, n)

	flipSig := func(p []byte) []byte {
		e, err := decodeEvent(p)
		if err != nil {
			t.Fatal(err)
		}
		e.Signature = append([]byte(nil), e.Signature...)
		e.Signature[0] ^= 0x01
		return encodeEvent(e)
	}
	forgeActor := func(p []byte) []byte {
		e, _ := decodeEvent(p)
		e.Actor = "forged"
		return encodeEvent(e)
	}
	truncate := func(p []byte) []byte { return p[:len(p)-3] }
	mid := n / 2
	cases := []struct {
		name  string
		edits map[int]func([]byte) []byte
		want  error
		index int // position in the log of the event the error must name
	}{
		{"first-signature", map[int]func([]byte) []byte{0: flipSig}, ErrBadSignature, 0},
		{"middle-signature", map[int]func([]byte) []byte{mid: flipSig}, ErrBadSignature, mid},
		{"last-signature", map[int]func([]byte) []byte{n - 1: flipSig}, ErrBadSignature, n - 1},
		{"two-signatures", map[int]func([]byte) []byte{checkpool.Batch + 2: flipSig, 2*checkpool.Batch + 1: flipSig}, ErrBadSignature, checkpool.Batch + 2},
		{"two-signatures-same-batch", map[int]func([]byte) []byte{11: flipSig, 3: flipSig}, ErrBadSignature, 3},
		{"signature-before-broken-link", map[int]func([]byte) []byte{mid: flipSig, mid + 1: forgeActor}, ErrBadSignature, mid},
		{"broken-link-before-signature", map[int]func([]byte) []byte{mid: forgeActor, mid + 1: flipSig}, ErrChainBroken, mid},
		{"signature-before-undecodable", map[int]func([]byte) []byte{checkpool.Batch: flipSig, n - 2: truncate}, ErrBadSignature, checkpool.Batch},
		{"undecodable-before-signature", map[int]func([]byte) []byte{4: truncate, n - 2: flipSig}, ErrCorrupt, -1},
	}
	for _, tc := range cases {
		payloads := make([][]byte, len(clean))
		copy(payloads, clean)
		for i, edit := range tc.edits {
			payloads[i] = edit(payloads[i])
		}
		want := serialReplay(payloads)
		if !errors.Is(want, tc.want) {
			t.Fatalf("%s: reference replay gave %v, want %v", tc.name, want, tc.want)
		}
		if tc.index >= 0 {
			e, _ := decodeEvent(clean[tc.index])
			named := fmt.Sprintf("record %s", e.Record)
			if !containsAll(want.Error(), named, fmt.Sprintf("index %d", e.Index)) {
				t.Fatalf("%s: reference error %q does not name event %d (%s index %d)", tc.name, want, tc.index, e.Record, e.Index)
			}
		}
		for _, procs := range []int{1, 4} {
			withProcs(t, procs, func() {
				_, err := Open(Config{Store: storeOf(t, payloads), Signer: signer, System: "sys"})
				if !errors.Is(err, tc.want) {
					t.Errorf("%s GOMAXPROCS=%d: Open error %v, want class %v", tc.name, procs, err, tc.want)
					return
				}
				if got, exp := err.Error(), "provenance: replaying custody log: "+want.Error(); got != exp {
					t.Errorf("%s GOMAXPROCS=%d: Open error\n  %s\nwant (serial replay)\n  %s", tc.name, procs, got, exp)
				}
			})
		}
	}
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			tr, err := Open(Config{Store: storeOf(t, clean), Signer: signer, System: "sys"})
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: clean log rejected: %v", procs, err)
			}
			if got, err := tr.VerifyAll(nil); err != nil || got != 7 {
				t.Fatalf("GOMAXPROCS=%d: VerifyAll = %d, %v", procs, got, err)
			}
		})
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// TestVerifyAllFirstError: the pooled VerifyAll reports what verifying each
// record in ID order reports — the count of records before the first bad
// one and that record's earliest error — with the trusted-signer check
// still applied, at any degree of parallelism.
func TestVerifyAllFirstError(t *testing.T) {
	signer, _ := vcrypto.NewSigner()
	other, _ := vcrypto.NewSigner()
	tr, _ := newTracker(t, "sys", nil)
	for i := 0; i < 2*checkpool.Batch; i++ {
		if _, err := tr.Record(fmt.Sprintf("r%03d", i%40), EventCreated, "dr", [32]byte{}, ""); err != nil {
			t.Fatal(err)
		}
	}
	// Two records adopt chains signed elsewhere: one by a trusted key, one
	// by a key outside the trusted set.
	adopt := func(id string, s *vcrypto.Signer) {
		src, _ := Open(Config{Store: blockstore.NewMemory(0), Signer: s, System: "elsewhere"})
		src.Record(id, EventCreated, "dr", [32]byte{}, "")
		chain, _ := src.Chain(id)
		if err := tr.Adopt(chain); err != nil {
			t.Fatal(err)
		}
	}
	adopt("r100-trusted", signer)
	adopt("r101-untrusted", other)
	trusted := map[string]bool{tr.signer.Public().String(): true, signer.Public().String(): true}

	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			n, err := tr.VerifyAll(trusted)
			if !errors.Is(err, ErrBadSignature) || n != 41 || !strings.Contains(err.Error(), "r101-untrusted") {
				t.Errorf("GOMAXPROCS=%d: VerifyAll(trusted) = %d, %v; want 41 records then the untrusted signer", procs, n, err)
			}
			if n, err := tr.VerifyAll(nil); err != nil || n != 42 {
				t.Errorf("GOMAXPROCS=%d: VerifyAll(nil) = %d, %v", procs, n, err)
			}
		})
	}

	// Corrupt two chains in memory: a bad signature on r007's second event
	// and a bad signature on r020's first. r007 sorts first, so it is the
	// error reported, after 7 clean records.
	tr.mu.Lock()
	for _, at := range []struct {
		id  string
		idx int
	}{{"r007", 1}, {"r020", 0}} {
		e := &tr.chains[at.id][at.idx]
		e.Signature = append([]byte(nil), e.Signature...)
		e.Signature[5] ^= 0x80
	}
	tr.mu.Unlock()
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			n, err := tr.VerifyAll(trusted)
			if !errors.Is(err, ErrBadSignature) || n != 7 || !containsAll(err.Error(), "record r007", "index 1") {
				t.Errorf("GOMAXPROCS=%d: VerifyAll = %d, %v; want 7 then r007 index 1", procs, n, err)
			}
			if want := tr.Verify("r007", trusted); err == nil || want.Error() != err.Error() {
				t.Errorf("GOMAXPROCS=%d: VerifyAll error %v differs from Verify's %v", procs, err, want)
			}
		})
	}
}
